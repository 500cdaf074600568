"""Property tests: the state journal against a model dict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Address, StateJournal

OWNERS = [Address("0x" + f"{i:02x}" * 20) for i in range(4)]

op = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(OWNERS), st.integers(0, 5), st.integers(-100, 100)),
    st.tuples(st.just("delete"), st.sampled_from(OWNERS), st.integers(0, 5), st.none()),
    st.tuples(st.just("add"), st.sampled_from(OWNERS), st.integers(0, 5), st.integers(-10, 10)),
)


def apply_ops(state, model, ops):
    for kind, owner, slot, value in ops:
        if kind == "set":
            state.set(owner, slot, value)
            model[(owner, slot)] = value
        elif kind == "delete":
            state.delete(owner, slot)
            model.pop((owner, slot), None)
        else:
            new = model.get((owner, slot), 0) + value
            state.add(owner, slot, value)
            model[(owner, slot)] = new


def assert_matches(state, model):
    for (owner, slot), value in model.items():
        assert state.get(owner, slot) == value
    for owner in OWNERS:
        for slot in range(6):
            if (owner, slot) not in model:
                assert not state.contains(owner, slot)


class TestJournalModel:
    @given(st.lists(op, max_size=30))
    @settings(max_examples=60)
    def test_flat_ops_match_model(self, ops):
        state, model = StateJournal(), {}
        apply_ops(state, model, ops)
        assert_matches(state, model)

    @given(st.lists(op, max_size=15), st.lists(op, max_size=15))
    @settings(max_examples=60)
    def test_rollback_discards_exactly_the_checkpointed_suffix(self, before, after):
        state, model = StateJournal(), {}
        apply_ops(state, model, before)
        state.checkpoint()
        throwaway = dict(model)
        apply_ops(state, throwaway, after)
        state.rollback()
        assert_matches(state, model)

    @given(st.lists(op, max_size=10), st.lists(op, max_size=10), st.lists(op, max_size=10))
    @settings(max_examples=60)
    def test_commit_inner_rollback_outer(self, a, b, c):
        state, model = StateJournal(), {}
        apply_ops(state, model, a)
        state.checkpoint()
        scratch = dict(model)
        apply_ops(state, scratch, b)
        state.checkpoint()
        apply_ops(state, scratch, c)
        state.commit()
        state.rollback()
        assert_matches(state, model)


CHECKPOINT = ("checkpoint", None, None, None)
step = st.one_of(
    op,
    st.just(CHECKPOINT),
    st.tuples(st.sampled_from(["commit", "rollback"]), st.none(), st.none(), st.none()),
)


class TestNestedJournalModel:
    """Random interleavings of checkpoints, writes, commits and rollbacks
    against a stack-of-snapshots model: a checkpoint pushes a copy of the
    state, a commit drops the top copy, a rollback restores it."""

    @given(
        st.lists(st.lists(op, max_size=4), min_size=4, max_size=6),
        st.lists(step, max_size=60),
    )
    @settings(max_examples=120)
    def test_interleavings_match_snapshot_stack(self, levels, tail):
        # open at least four nested levels (each with some writes), then
        # continue with an arbitrary mix, closing and reopening levels
        program = [s for writes in levels for s in [CHECKPOINT, *writes]]
        program += tail
        state, model, snapshots = StateJournal(), {}, []
        for kind, owner, slot, value in program:
            if kind == "checkpoint":
                assert state.checkpoint() == len(snapshots) + 1
                snapshots.append(dict(model))
            elif kind in ("commit", "rollback"):
                if not snapshots:
                    with pytest.raises(RuntimeError):
                        getattr(state, kind)()
                else:
                    getattr(state, kind)()
                    saved = snapshots.pop()
                    if kind == "rollback":
                        model = saved
            else:
                apply_ops(state, model, [(kind, owner, slot, value)])
            assert_matches(state, model)
            assert len(state) == len(model)
            assert state.depth == len(snapshots)
        # rolling back the open levels restores, one by one, the state
        # each was opened on
        while snapshots:
            state.rollback()
            model = snapshots.pop()
            assert_matches(state, model)
        assert state.depth == 0
