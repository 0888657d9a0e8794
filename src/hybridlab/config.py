"""Model dimension bundles and named presets.

A `ModelConfig` carries every width a layout's blocks might need
(attention and SSM alike); the layout decides which of them a given
layer actually uses. Presets come in two families:

* published scales (100m / 350m / 1b / 3b) with the pure and hybrid
  layouts whose costs the golden tests reproduce;
* `toy-*` presets small enough to train in seconds on synthetic tasks.

Vocab is the 128K tokenizer's exact row count (128,256).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .attention import AttnConfig, check_window
from .hybrid import FUSION_PRESETS, FusionSpec, IntraHybridConfig
from .layout import BlockSpec, LayoutSpec, plan_layout, uniform_layout
from .moe import MoeConfig
from .ssm import SsmConfig
from .tensor import ContractError

VOCAB_128K = 128256


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    d_ffn: int
    vocab: int
    n_heads: int
    n_kv_heads: int
    d_head: int
    d_ssm: int
    d_head_ssm: int
    d_state: int
    n_conv: int = 4
    window: int = 512
    sink: int = 64
    rope_base: float = 500000.0

    def __post_init__(self):
        if self.n_heads * self.d_head != self.d_model:
            raise ContractError(
                f"n_heads*d_head = {self.n_heads * self.d_head} must equal d_model {self.d_model}"
            )
        check_window(self.window, self.sink)

    def attn_cfg(self) -> AttnConfig:
        return AttnConfig(
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_kv_heads=self.n_kv_heads,
            d_qk=self.d_head,
            d_v=self.d_head,
        )

    def ssm_cfg(self) -> SsmConfig:
        return SsmConfig(
            d_model=self.d_model,
            d_ssm=self.d_ssm,
            d_head=self.d_head_ssm,
            d_state=self.d_state,
            n_conv=self.n_conv,
        )

    def intra_cfg(self, spec: BlockSpec) -> IntraHybridConfig:
        return IntraHybridConfig(
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_kv_heads=self.n_kv_heads,
            d_ssm=self.d_ssm,
            d_state=self.d_state,
            n_conv=self.n_conv,
            dim_ratio=spec.dim_ratio if spec.dim_ratio is not None else (1.0, 1.0),
            rope_base=self.rope_base,
        )

    def moe_cfg(self) -> MoeConfig:
        # shared + one routed expert together cost one dense FFN
        return MoeConfig(d_model=self.d_model, d_ffn_expert=self.d_ffn // 2)

    def block_fusion(self, spec: BlockSpec) -> FusionSpec:
        return spec.fusion if spec.fusion is not None else FUSION_PRESETS["best"]

    def block_window(self, spec: BlockSpec) -> tuple[int, int]:
        w = spec.window if spec.window is not None else self.window
        s = spec.sink if spec.sink is not None else self.sink
        return w, s

    def block_branches(
        self, spec: BlockSpec
    ) -> tuple[AttnConfig | None, tuple[int, int] | None, SsmConfig | None]:
        """(attention, its (window, sink), SSM) branches of a block; None if absent.

        The one place that knows which branches each kind has: attn and
        swa one full-width attention (swa windowed), mamba one SSM, intra
        both at half width. Costs, decode caches and `Block` read it.
        """
        if spec.kind == "mamba":
            return None, None, self.ssm_cfg()
        if spec.kind == "intra":
            icfg = self.intra_cfg(spec)
            return icfg.attn_cfg, None, icfg.ssm_cfg
        window = self.block_window(spec) if spec.kind == "swa" else None
        return self.attn_cfg(), window, None


# dims per published scale; attention depth / ssm depth differ per family
_SCALES = {
    "100m": dict(
        d_model=1024, d_ffn=3072, vocab=VOCAB_128K,
        n_heads=16, n_kv_heads=4, d_head=64,
        d_ssm=2048, d_head_ssm=128, d_state=128,
        depth_attn=8, depth_ssm=6,
    ),
    "350m": dict(
        d_model=1536, d_ffn=4096, vocab=VOCAB_128K,
        n_heads=24, n_kv_heads=8, d_head=64,
        d_ssm=3072, d_head_ssm=128, d_state=128,
        depth_attn=14, depth_ssm=11,
    ),
    "1b": dict(
        d_model=2048, d_ffn=8192, vocab=VOCAB_128K,
        n_heads=32, n_kv_heads=8, d_head=64,
        d_ssm=4096, d_head_ssm=128, d_state=128,
        depth_attn=16, depth_ssm=13,
    ),
    "3b": dict(
        d_model=3072, d_ffn=8192, vocab=VOCAB_128K,
        n_heads=32, n_kv_heads=8, d_head=96,
        d_ssm=6144, d_head_ssm=192, d_state=256,
        depth_attn=28, depth_ssm=21,
    ),
}


def base_config(scale: str) -> ModelConfig:
    if scale not in _SCALES:
        raise ContractError(f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}")
    row = {k: v for k, v in _SCALES[scale].items() if not k.startswith("depth")}
    return ModelConfig(**row)


def _toy_config() -> ModelConfig:
    return ModelConfig(
        d_model=64, d_ffn=192, vocab=64,
        n_heads=8, n_kv_heads=4, d_head=8,
        d_ssm=128, d_head_ssm=16, d_state=16,
        n_conv=4, window=8, sink=2, rope_base=10000.0,
    )


# name -> (published scale, None for the toy dims; builder of its layout)
_PRESETS = {
    **{f"llama-{s}": (s, lambda s=s: uniform_layout(_SCALES[s]["depth_attn"], BlockSpec(kind="attn")))
       for s in _SCALES},
    **{f"mamba-{s}": (s, lambda s=s: uniform_layout(_SCALES[s]["depth_ssm"], BlockSpec(kind="mamba")))
       for s in _SCALES},
    "swa-1b": ("1b", lambda: plan_layout(
        depth=_SCALES["1b"]["depth_attn"], counts=(3, 13),
        special="attn", base="swa", positioning="scatter",
    )),
    "inter-1b": ("1b", lambda: plan_layout(depth=13, counts=(2, 11), special="attn", base="mamba")),
    "intra-1b": ("1b", lambda: plan_layout(depth=13, counts=(2, 11), special="intra", base="mamba")),
    "toy-llama": (None, lambda: uniform_layout(4, BlockSpec(kind="attn"))),
    "toy-mamba": (None, lambda: uniform_layout(4, BlockSpec(kind="mamba"))),
    "toy-swa": (None, lambda: plan_layout(depth=4, counts=(1, 3), special="attn", base="swa")),
    "toy-inter": (None, lambda: plan_layout(depth=4, counts=(1, 3), special="attn", base="mamba")),
    "toy-intra": (None, lambda: plan_layout(depth=4, counts=(1, 3), special="intra", base="mamba")),
    "toy-intra-2l": (None, lambda: uniform_layout(2, BlockSpec(kind="intra"))),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> tuple[ModelConfig, LayoutSpec]:
    """Named (config, layout) pair.

    Published scales: llama-*, mamba-* (pure stacks), swa-1b (3 global
    + 13 windowed), inter-1b (2 attention + 11 ssm), intra-1b (2 fused
    hybrid + 11 ssm). Toy family: toy-llama / toy-mamba / toy-swa /
    toy-inter / toy-intra (depth 4) and toy-intra-2l (depth 2).
    """
    if name not in _PRESETS:
        raise ContractError(f"unknown preset {name!r}")
    scale, layout = _PRESETS[name]
    return (_toy_config() if scale is None else base_config(scale)), layout()


def with_vocab(cfg: ModelConfig, vocab: int) -> ModelConfig:
    return replace(cfg, vocab=vocab)
