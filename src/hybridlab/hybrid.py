"""Intra-layer hybrid mixer: half-width attention and SSM branches, fused.

The block splits its heads between a grouped-query attention branch and
a selective-SSM branch running in parallel on the same input. Both
branches produce per-head contexts of the same head width
``d_fuse = d_model / n_half``: the attention branch queries and keys at
a reduced ``d_qk`` while its values are expanded back to ``d_fuse``;
the SSM branch runs its native heads at ``d_fuse`` channels. A
``FusionSpec`` then picks one cell of the combination matrix:

  norm      none | group         per-branch per-head normalization
  scalar    none | scale | gate | diff_lambda
  fusion    add | diff | concat
  out_projs 1 | 2               fuse-then-project vs project-then-fuse

``diff_lambda`` scales the SSM branch by the reparameterized scalar
lambda = exp(lq1.lk1) - exp(lq2.lk2) + lambda_init before fusing, with
lambda_init decaying toward 0.8 with depth. With two output
projections the branches are fused after each is mapped to d_model, so
any dim ratio is legal; with one projection, add/diff require the
branch widths to match and concat projects the doubled width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttnConfig, attention_context, init_attn_params
from .nn import RopeConfig, group_norm_per_head, param, proj_init, weight
from .ssm import SsmConfig, SsmState, init_ssm_params, ssm_context
from .tensor import ContractError, Tensor, concat, exp, matmul, sigmoid, tsum

NORMS = ("none", "group")
SCALARS = ("none", "scale", "gate", "diff_lambda")
FUSIONS = ("add", "diff", "concat")


@dataclass(frozen=True)
class FusionSpec:
    norm: str = "group"
    scalar: str = "none"
    fusion: str = "diff"
    out_projs: int = 2

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ContractError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.scalar not in SCALARS:
            raise ContractError(f"scalar must be one of {SCALARS}, got {self.scalar!r}")
        if self.fusion not in FUSIONS:
            raise ContractError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.out_projs not in (1, 2):
            raise ContractError(f"out_projs must be 1 or 2, got {self.out_projs}")
        if self.fusion == "concat" and self.out_projs != 1:
            raise ContractError("concat fuses before the single output projection")


def legal_fusion_specs() -> list[FusionSpec]:
    """Every legal cell of the fusion combination matrix."""
    cells = []
    for norm in NORMS:
        for scalar in SCALARS:
            for fusion in FUSIONS:
                for out in (1, 2):
                    if fusion == "concat" and out != 1:
                        continue
                    cells.append(FusionSpec(norm, scalar, fusion, out))
    return cells


# named rows of the published variant matrix, for presets and the CLI
FUSION_PRESETS = {
    "best": FusionSpec("group", "none", "diff", 2),
    "hymba": FusionSpec("group", "scale", "add", 1),
    "concat": FusionSpec("none", "none", "concat", 1),
    "diff-t": FusionSpec("none", "diff_lambda", "diff", 1),
    "diff-m": FusionSpec("none", "diff_lambda", "diff", 2),
}


def default_lambda_init(layer_index: int) -> float:
    """Depth-dependent lambda_init for the diff_lambda scalar."""
    return 0.8 - 0.6 * math.exp(-0.3 * layer_index)


@dataclass(frozen=True)
class IntraHybridConfig:
    """Dims of one intra-layer hybrid block.

    n_heads / n_kv_heads / d_ssm are the full-block reference counts;
    each branch gets half (n_half query heads, n_kv halved with a floor
    of 1, d_ssm scaled by the dim ratio). dim_ratio is the
    (attention, ssm) width split, normalized internally; 1:1 puts
    d_qk at half the fused head width and the SSM branch at half the
    reference d_ssm.
    """

    d_model: int
    n_heads: int
    n_kv_heads: int
    d_ssm: int
    d_state: int
    n_conv: int
    n_groups: int = 1
    dim_ratio: tuple[float, float] = (1.0, 1.0)
    rope_base: float = 500000.0

    def __post_init__(self):
        if self.n_heads % 2 != 0 or self.n_heads < 2:
            raise ContractError("intra-hybrid needs an even head count >= 2")
        if self.d_model % (self.n_heads // 2) != 0:
            raise ContractError("d_model must divide evenly into n_heads/2 fused heads")
        a, s = self.dim_ratio
        if a < 0 or s <= 0:
            raise ContractError("dim_ratio parts must be positive (ssm side nonzero)")

    @property
    def n_half(self) -> int:
        return self.n_heads // 2

    @property
    def d_fuse(self) -> int:
        return self.d_model // self.n_half

    @property
    def ratio(self) -> tuple[float, float]:
        a, s = self.dim_ratio
        return a / (a + s), s / (a + s)

    @property
    def d_qk(self) -> int:
        frac = self.ratio[0]
        return max(2, 2 * round(frac * self.d_fuse / 2))

    @property
    def d_ssm_branch(self) -> int:
        frac = self.ratio[1]
        return max(self.d_fuse, round(frac * self.d_ssm / self.d_fuse) * self.d_fuse)

    @property
    def attn_cfg(self) -> AttnConfig:
        return AttnConfig(
            d_model=self.d_model,
            n_heads=self.n_half,
            n_kv_heads=max(1, self.n_kv_heads // 2),
            d_qk=self.d_qk,
            d_v=self.d_fuse,
        )

    @property
    def ssm_cfg(self) -> SsmConfig:
        return SsmConfig(
            d_model=self.d_model,
            d_ssm=self.d_ssm_branch,
            d_head=self.d_fuse,
            d_state=self.d_state,
            n_conv=self.n_conv,
            n_groups=self.n_groups,
            gated_norm=False,
        )

    @property
    def rope_cfg(self) -> RopeConfig:
        return RopeConfig(head_dim=self.d_qk, base=self.rope_base)

    def validate_fusion(self, spec: FusionSpec) -> None:
        if spec.out_projs == 1 and spec.fusion in ("add", "diff"):
            attn_w = self.n_half * self.d_fuse
            if attn_w != self.d_ssm_branch:
                raise ContractError(
                    f"{spec.fusion} with one projection needs equal branch widths, "
                    f"got attention {attn_w} vs ssm {self.d_ssm_branch}; "
                    "use out_projs=2 or a 1:1 dim ratio"
                )


def fused_width(icfg: IntraHybridConfig, spec: FusionSpec) -> int:
    """Width entering the single output projection (out_projs=1)."""
    attn_w = icfg.n_half * icfg.d_fuse
    return attn_w + icfg.d_ssm_branch if spec.fusion == "concat" else attn_w


def init_intra_params(
    icfg: IntraHybridConfig,
    spec: FusionSpec,
    rng: np.random.Generator | None,
) -> dict:
    """Both branches' weights plus the fusion cell's; with rng None, their shapes."""
    icfg.validate_fusion(spec)
    # the branch output projections are drawn and then dropped: the
    # fusion's own projections replace them, and the draws keep every
    # later weight a seed gives in place
    params = init_attn_params(icfg.attn_cfg, rng, "intra.attn")
    params.pop("intra.attn.wo")
    params.update(init_ssm_params(icfg.ssm_cfg, rng, "intra.ssm"))
    params.pop("intra.ssm.out_proj")

    h_attn, h_ssm = icfg.n_half, icfg.d_ssm_branch // icfg.d_fuse
    if spec.norm == "group":
        params["intra.norm_attn.weight"] = weight(rng, (h_attn, icfg.d_fuse), 1.0)
        params["intra.norm_ssm.weight"] = weight(rng, (h_ssm, icfg.d_fuse), 1.0)
    if spec.scalar == "scale":
        params["intra.scale_attn"] = weight(rng, (1,), 1.0)
        params["intra.scale_ssm"] = weight(rng, (1,), 1.0)
    elif spec.scalar == "gate":
        params["intra.gate_attn"] = weight(rng, (h_attn,), 0.0)
        params["intra.gate_ssm"] = weight(rng, (h_ssm,), 0.0)
    elif spec.scalar == "diff_lambda":
        for name in ("lambda_q1", "lambda_k1", "lambda_q2", "lambda_k2"):
            params[f"intra.{name}"] = param(rng, (icfg.d_fuse,), 0.1)

    if spec.out_projs == 1:
        params["intra.wo"] = proj_init(rng, fused_width(icfg, spec), icfg.d_model)
    else:
        params["intra.wo_attn"] = proj_init(rng, h_attn * icfg.d_fuse, icfg.d_model)
        params["intra.wo_ssm"] = proj_init(rng, icfg.d_ssm_branch, icfg.d_model)
    return params


def diff_lambda_value(weights: dict[str, Tensor], lambda_init: float) -> Tensor:
    """Scalar lambda = exp(lq1.lk1) - exp(lq2.lk2) + lambda_init."""
    l1 = exp(tsum(weights["intra.lambda_q1"] * weights["intra.lambda_k1"]))
    l2 = exp(tsum(weights["intra.lambda_q2"] * weights["intra.lambda_k2"]))
    return l1 - l2 + lambda_init


def fuse_branches(
    a: Tensor,
    m: Tensor,
    weights: dict[str, Tensor],
    icfg: IntraHybridConfig,
    spec: FusionSpec,
    lambda_init: float = 0.5,
) -> Tensor:
    """Norm, scalar, fusion, projection. a (B,L,Ha,df), m (B,L,Hm,df)."""
    b, l = a.shape[0], a.shape[1]
    if spec.norm == "group":
        a = group_norm_per_head(a, weights["intra.norm_attn.weight"])
        m = group_norm_per_head(m, weights["intra.norm_ssm.weight"])
    if spec.scalar == "scale":
        a = a * weights["intra.scale_attn"]
        m = m * weights["intra.scale_ssm"]
    elif spec.scalar == "gate":
        ha, hm = a.shape[2], m.shape[2]
        a = a * sigmoid(weights["intra.gate_attn"]).reshape(1, 1, ha, 1)
        m = m * sigmoid(weights["intra.gate_ssm"]).reshape(1, 1, hm, 1)
    elif spec.scalar == "diff_lambda":
        m = m * diff_lambda_value(weights, lambda_init)

    flat_a = a.reshape(b, l, a.shape[2] * a.shape[3])
    flat_m = m.reshape(b, l, m.shape[2] * m.shape[3])
    if spec.out_projs == 1:
        if spec.fusion == "concat":
            fused = concat([flat_a, flat_m], axis=-1)
        elif spec.fusion == "add":
            fused = flat_a + flat_m
        else:
            fused = flat_a - flat_m
        return matmul(fused, weights["intra.wo"])
    ya = matmul(flat_a, weights["intra.wo_attn"])
    ym = matmul(flat_m, weights["intra.wo_ssm"])
    return ya + ym if spec.fusion == "add" else ya - ym


def ssm_branch_step(
    x_t: Tensor,
    weights: dict[str, Tensor],
    scfg: SsmConfig,
    state: SsmState,
) -> tuple[Tensor, SsmState]:
    """Single-token SSM half: x_t (B, d_model) -> (B, 1, H_ssm, d_fuse).

    `ssm_context` on one token; returns a new state, leaving `state` as
    it was.
    """
    new = SsmState(conv_buf=state.conv_buf, h=state.h)
    x = x_t.reshape(x_t.shape[0], 1, scfg.d_model)
    return ssm_context(x, weights, scfg, prefix="intra.ssm", state=new), new


def intra_hybrid_forward(
    x: Tensor,
    weights: dict[str, Tensor],
    icfg: IntraHybridConfig,
    spec: FusionSpec,
    positions: np.ndarray,
    lambda_init: float = 0.5,
    cache=None,
) -> Tensor:
    """Full block pass: (B, L, d_model) -> (B, L, d_model).

    The SSM half is `ssm_context` (no norm weight, no out projection).
    With a `cache` (`decode.IntraCache`), the attention half reads and
    writes its KV cache and the SSM half advances its state.
    """
    icfg.validate_fusion(spec)
    a = attention_context(
        x, weights, icfg.attn_cfg, icfg.rope_cfg, positions, prefix="intra.attn",
        cache=None if cache is None else cache.kv,
    )
    m = ssm_context(
        x, weights, icfg.ssm_cfg, prefix="intra.ssm", state=None if cache is None else cache.ssm
    )
    return fuse_branches(a, m, weights, icfg, spec, lambda_init)
