"""DeFi world builder: one-stop construction of simulated deployments.

Study scenarios (the 22 real-world attack replays) and the wild-scan
workload generator both need the same boilerplate: a chain, a WETH
contract, labelled protocol deployments, funded liquidity pools and flash
loan providers. :class:`DeFiWorld` packages that with an Ethereum profile
and a BNB Smart Chain profile (PancakeSwap/Venus naming), mirroring the
fork relationship the paper leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .chain import Chain, ETH, Address
from .defi import (
    AaveLendingPool,
    BalancerPool,
    DexSpotOracle,
    LendingMarket,
    MarginVenue,
    SoloMargin,
    StableSwapPool,
    TradeAggregator,
    UniswapV2Factory,
    UniswapV2Pair,
    UniswapV2Router,
    Vault,
)
from .tokens import DeflationaryERC20, ERC20, TokenRegistry, WETH

__all__ = ["ChainProfile", "DeFiWorld", "ETHEREUM_PROFILE", "BSC_PROFILE"]


@dataclass(frozen=True, slots=True)
class ChainProfile:
    """Naming profile for a chain and its canonical protocol forks."""

    chain_name: str
    native_symbol: str
    wrapped_symbol: str
    dex_app: str
    lending_app: str


ETHEREUM_PROFILE = ChainProfile(
    chain_name="ethereum",
    native_symbol="ETH",
    wrapped_symbol="WETH",
    dex_app="Uniswap",
    lending_app="Compound",
)

BSC_PROFILE = ChainProfile(
    chain_name="bsc",
    native_symbol="BNB",
    wrapped_symbol="WBNB",
    dex_app="PancakeSwap",
    lending_app="Venus",
)

_WHALE_ETH = 100_000_000 * ETH


@dataclass
class DeFiWorld:
    """A chain plus the standard cast of protocols, ready for scenarios."""

    profile: ChainProfile = ETHEREUM_PROFILE
    chain: Chain = field(init=False)
    registry: TokenRegistry = field(init=False)
    whale: Address = field(init=False)
    weth: WETH = field(init=False)

    def __post_init__(self) -> None:
        self.chain = Chain(self.profile.chain_name)
        self.registry = TokenRegistry(native_symbol=self.profile.native_symbol)
        self.whale = self.chain.create_eoa("whale")
        self.chain.faucet(self.whale, _WHALE_ETH)
        weth_deployer = self.chain.create_eoa("weth-deployer")
        self.weth = self.chain.deploy(weth_deployer, WETH, label="Wrapped Ether")
        self.weth.symbol = self.profile.wrapped_symbol
        self.registry.register(self.weth)
        self.chain.transact(self.whale, self.weth.address, "deposit", value=_WHALE_ETH // 2)
        self._factories: dict[str, UniswapV2Factory] = {}
        self._routers: dict[str, UniswapV2Router] = {}
        self._deployers: dict[str, Address] = {}
        self._aave: AaveLendingPool | None = None
        self._dydx: SoloMargin | None = None

    # ------------------------------------------------------------------
    # deployers & labels
    # ------------------------------------------------------------------

    def deployer_of(self, app: str) -> Address:
        """The labelled root EOA of an application (created on demand)."""
        if app not in self._deployers:
            self._deployers[app] = self.chain.create_eoa(
                f"{app}-deployer", label=f"{app}: Deployer 1"
            )
        return self._deployers[app]

    # ------------------------------------------------------------------
    # tokens
    # ------------------------------------------------------------------

    def new_token(
        self,
        symbol: str,
        decimals: int = 18,
        supply_to_whale: int | None = None,
        app: str | None = None,
    ) -> ERC20:
        """Deploy and register a token; optionally mint whale supply."""
        deployer = self.deployer_of(app) if app else self.chain.create_eoa(f"{symbol}-issuer")
        label = f"{app}: {symbol} Token" if app else None
        token = self.registry.deploy(self.chain, deployer, symbol, decimals, label=label)
        if supply_to_whale is None:
            supply_to_whale = 10_000_000_000 * token.unit
        if supply_to_whale:
            token.mint(self.whale, supply_to_whale)
        return token

    def deflationary_token(
        self, symbol: str, fee_bps: int = 100, decimals: int = 18, supply_to_whale: int | None = None
    ) -> DeflationaryERC20:
        deployer = self.chain.create_eoa(f"{symbol}-issuer")
        token = self.chain.deploy(deployer, DeflationaryERC20, symbol, decimals, fee_bps, hint=symbol)
        self.registry.register(token)
        if supply_to_whale is None:
            supply_to_whale = 10_000_000_000 * token.unit
        if supply_to_whale:
            token.mint(self.whale, supply_to_whale)
        return token

    def token(self, symbol: str) -> ERC20:
        return self.registry.by_symbol(symbol)

    # ------------------------------------------------------------------
    # Uniswap-style DEXs
    # ------------------------------------------------------------------

    def dex_factory(self, app: str | None = None) -> UniswapV2Factory:
        app = app or self.profile.dex_app
        if app not in self._factories:
            deployer = self.deployer_of(app)
            factory = self.chain.deploy(
                deployer, UniswapV2Factory, label=f"{app}: Factory Contract"
            )
            factory.app_name = app
            self._factories[app] = factory
        return self._factories[app]

    def dex_router(self, app: str | None = None) -> UniswapV2Router:
        app = app or self.profile.dex_app
        if app not in self._routers:
            deployer = self.deployer_of(app)
            router = self.chain.deploy(deployer, UniswapV2Router, label=f"{app}: Router")
            router.app_name = app
            self._routers[app] = router
        return self._routers[app]

    def dex_pair(
        self,
        token_a: ERC20,
        token_b: ERC20,
        reserve_a: int,
        reserve_b: int,
        app: str | None = None,
    ) -> UniswapV2Pair:
        """Create and seed a pair with the given reserves from the whale."""
        factory = self.dex_factory(app)
        router = self.dex_router(app)
        pair = factory.create_pair(token_a.address, token_b.address)
        self.approve(self.whale, token_a, router.address)
        self.approve(self.whale, token_b, router.address)
        amount0, amount1 = (
            (reserve_a, reserve_b)
            if pair.token0 == token_a.address
            else (reserve_b, reserve_a)
        )
        self.chain.transact(
            self.whale, router.address, "addLiquidity", pair.address, amount0, amount1
        )
        return pair

    # ------------------------------------------------------------------
    # other venue types
    # ------------------------------------------------------------------

    def balancer_pool(
        self,
        deposits: Mapping[ERC20, int],
        weights: Sequence[float] | None = None,
        app: str = "Balancer",
        lp_symbol: str = "BPT",
    ) -> BalancerPool:
        tokens = list(deposits)
        weights = list(weights) if weights is not None else [1.0] * len(tokens)
        deployer = self.deployer_of(app)
        pool = self.chain.deploy(
            deployer,
            BalancerPool,
            tuple(t.address for t in tokens),
            tuple(weights),
            lp_symbol,
            label=f"{app}: {lp_symbol} Pool",
        )
        pool.app_name = app
        self.registry.register(pool)
        for token in tokens:
            self.approve(self.whale, token, pool.address)
        pool.seed(self.whale, {t.address: amt for t, amt in deposits.items()}, 100 * ETH)
        return pool

    def curve_pool(
        self,
        deposits: Mapping[ERC20, int],
        amp: int = 100,
        app: str = "Curve",
        lp_symbol: str = "crvLP",
    ) -> StableSwapPool:
        coins = list(deposits)
        deployer = self.deployer_of(app)
        pool = self.chain.deploy(
            deployer,
            StableSwapPool,
            tuple(c.address for c in coins),
            amp,
            lp_symbol,
            label=f"{app}: {lp_symbol} Pool",
        )
        pool.app_name = app
        self.registry.register(pool)
        for coin in coins:
            self.approve(self.whale, coin, pool.address)
        self.chain.transact(
            self.whale, pool.address, "add_liquidity", [deposits[c] for c in coins]
        )
        return pool

    def vault(
        self,
        underlying: ERC20,
        share_symbol: str,
        app: str = "Harvest",
        value_per_underlying: Callable[[], float] | None = None,
        seed_amount: int | None = None,
        deviation_guard_bps: int | None = None,
    ) -> Vault:
        deployer = self.deployer_of(app)
        vault = self.chain.deploy(
            deployer,
            Vault,
            underlying.address,
            share_symbol,
            value_per_underlying,
            deviation_guard_bps,
            label=f"{app}: {share_symbol} Vault",
        )
        vault.app_name = app
        self.registry.register(vault)
        if seed_amount is None:
            seed_amount = 100_000_000 * underlying.unit
        if seed_amount:
            self.approve(self.whale, underlying, vault.address)
            self.chain.transact(self.whale, vault.address, "deposit", seed_amount)
        return vault

    def aggregator(self, app: str = "Kyber", fee_bps: int = 0) -> TradeAggregator:
        deployer = self.deployer_of(app)
        agg = self.chain.deploy(deployer, TradeAggregator, fee_bps, label=f"{app}: Proxy")
        agg.app_name = app
        return agg

    def lending_market(
        self,
        prices: Mapping[Address, float] | Callable[[Address], float],
        funding: Mapping[ERC20, int] | None = None,
        app: str | None = None,
    ) -> LendingMarket:
        app = app or self.profile.lending_app
        price_of = prices if callable(prices) else (lambda t: prices[t])
        deployer = self.deployer_of(app)
        market = self.chain.deploy(
            deployer, LendingMarket, price_of, label=f"{app}: Comptroller"
        )
        market.app_name = app
        for token, amount in (funding or {}).items():
            self.approve(self.whale, token, market.address)
            self.chain.transact(self.whale, market.address, "supply", token.address, amount)
        return market

    def margin_venue(
        self,
        oracle_pools: Sequence[UniswapV2Pair],
        funding: Mapping[ERC20, int] | None = None,
        app: str = "bZx",
    ) -> MarginVenue:
        deployer = self.deployer_of(app)
        venue = self.chain.deploy(
            deployer, MarginVenue, DexSpotOracle(list(oracle_pools)), label=f"{app}: Protocol"
        )
        venue.app_name = app
        for token, amount in (funding or {}).items():
            self.approve(self.whale, token, venue.address)
            self.chain.transact(self.whale, venue.address, "fund", token.address, amount)
        return venue

    # ------------------------------------------------------------------
    # flash loan providers
    # ------------------------------------------------------------------

    def aave(self, funding: Mapping[ERC20, int] | None = None) -> AaveLendingPool:
        if self._aave is None:
            deployer = self.deployer_of("AAVE")
            self._aave = self.chain.deploy(
                deployer, AaveLendingPool, label="AAVE: Lending Pool"
            )
        for token, amount in (funding or {}).items():
            self.approve(self.whale, token, self._aave.address)
            self.chain.transact(
                self.whale, self._aave.address, "deposit", token.address, amount
            )
        return self._aave

    def dydx(self, funding: Mapping[ERC20, int] | None = None) -> SoloMargin:
        if self._dydx is None:
            deployer = self.deployer_of("dYdX")
            self._dydx = self.chain.deploy(deployer, SoloMargin, label="dYdX: Solo Margin")
        for token, amount in (funding or {}).items():
            self.approve(self.whale, token, self._dydx.address)
            self.chain.transact(
                self.whale, self._dydx.address, "fund", token.address, amount
            )
        return self._dydx

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def approve(self, owner: Address, token: ERC20, spender: Address) -> None:
        self.chain.transact(owner, token.address, "approve", spender, 2**200)

    def fund_token(self, recipient: Address, token: ERC20, amount: int) -> None:
        """Give an account tokens directly (genesis-style allocation)."""
        token.mint(recipient, amount)

    def fund_weth(self, recipient: Address, amount: int) -> None:
        """Wrap fresh native asset into WETH for ``recipient``."""
        self.chain.faucet(recipient, amount)
        self.chain.transact(recipient, self.weth.address, "deposit", value=amount)

    def create_attacker(self, hint: str = "attacker") -> Address:
        return self.chain.create_eoa(hint)

    def simplifier_config(self, **overrides) -> "SimplifierConfig":
        """A simplifier config wired to this world's WETH token."""
        from .leishen.simplify import SimplifierConfig

        return SimplifierConfig(
            weth_tokens=frozenset({self.weth.address}), **overrides
        )

    def detector(self, **config_overrides) -> "LeiShen":
        """A LeiShen instance bound to this world's chain and WETH."""
        from .leishen.detector import LeiShen, LeiShenConfig

        return LeiShen(
            self.chain,
            LeiShenConfig(simplifier=self.simplifier_config(), **config_overrides),
        )
