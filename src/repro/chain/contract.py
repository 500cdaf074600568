"""Contract programming model.

Protocols (and attack contracts) are Python classes deriving from
:class:`Contract`. Externally callable entry points are marked with the
:func:`external` decorator and receive a :class:`Msg` carrying the caller
and attached Ether value — the moral equivalent of Solidity's ``msg``.

All persistent contract state must go through ``self.storage`` (a
:class:`~repro.chain.state.StorageView`) so that reverts roll it back;
plain Python attributes are treated as immutable configuration.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, TypeVar

from .errors import UnknownFunction
from .state import StorageView
from .types import Address

if TYPE_CHECKING:  # pragma: no cover
    from .chain import Chain

__all__ = ["Msg", "Contract", "external"]

F = TypeVar("F", bound=Callable[..., Any])


class Msg(NamedTuple):
    """Call context handed to every external function."""

    sender: Address
    value: int = 0


def external(func: F) -> F:
    """Mark a contract method as an externally callable entry point."""
    func.__external__ = True  # type: ignore[attr-defined]
    return func


@cache
def _is_external(cls: type, function: str) -> bool:
    """Whether any definition of ``function`` in ``cls``'s MRO is marked
    ``@external``. Memoised per class and name, which assumes a method's
    marking does not change after its first dispatch; only names that
    resolve to an attribute are asked, so the cache is bounded by the
    contract classes' attributes."""
    for klass in cls.__mro__:
        candidate = klass.__dict__.get(function)
        if candidate is not None and getattr(candidate, "__external__", False):
            return True
    return False


class Contract:
    """Base class for every deployed contract.

    Attributes
    ----------
    chain:
        The chain this contract lives on; used for nested calls, event
        emission and asset movement.
    address:
        The contract's account address.
    storage:
        Journaled persistent storage scoped to this contract.
    app_name:
        Optional DeFi application name. Deployments carrying an app name
        seed the Etherscan-style label database used by account tagging.
    """

    #: Default application name for instances of this contract class.
    APP_NAME: str | None = None

    def __init__(self, chain: "Chain", address: Address) -> None:
        self.chain = chain
        self.address = address
        self.storage = StorageView(chain.state, address)
        self.app_name: str | None = self.APP_NAME
        #: whether this contract implements trade events. Some real DeFi
        #: apps never emit Swap/Deposit-style events, which is why the
        #: explorer baseline misses their trades (paper Sec. VI-B);
        #: scenarios flip this to reproduce that.
        self.emits_trade_events: bool = True

    # -- dispatch --------------------------------------------------------

    def dispatch(self, function: str, msg: Msg, /, *args: Any, **kwargs: Any) -> Any:
        """Invoke an external entry point by name (used by the chain).

        A method is dispatchable if *any* definition of that name in the
        class hierarchy is marked ``@external`` — so interface base classes
        (e.g. flash-loan receiver callbacks) can declare the entry point
        once and subclasses can override without re-decorating.
        """
        handler = getattr(self, function, None)
        if handler is None or not _is_external(type(self), function):
            raise UnknownFunction(f"{type(self).__name__} has no external fn {function!r}")
        return handler(msg, *args, **kwargs)

    # -- convenience wrappers used by subclasses --------------------------

    def call(self, target: Address, function: str, /, *args: Any, value: int = 0, **kwargs: Any) -> Any:
        """Make a nested message call with this contract as ``msg.sender``."""
        return self.chain.call(self.address, target, function, *args, value=value, **kwargs)

    def emit(self, event: str, **params: Any) -> None:
        """Emit an event log from this contract."""
        self.chain.emit_log(self.address, event, **params)

    def emit_trade(self, event: str, **params: Any) -> None:
        """Emit a *trade* event, unless this deployment doesn't implement
        trade events (``emits_trade_events = False``)."""
        if self.emits_trade_events:
            self.chain.emit_log(self.address, event, **params)

    def receive_ether(self, msg: Msg) -> None:
        """Hook invoked when plain Ether is sent to the contract.

        Default accepts silently (like an empty ``receive()``); WETH
        overrides this to mint on deposit.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} at {self.address.short}>"
