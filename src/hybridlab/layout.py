"""Network stacking plans: which block kind sits at which depth.

A layout is a flat sequence of per-layer block specs. The planner
turns a (special kind, base kind) ratio into explicit positions using
one of a few placement policies, and the linter flags placements the
ablations consistently punish: special blocks at the very front, and
sandwich plans that pin them to both ends.

Placement policies for k special blocks in depth D:

  scatter    indices floor((j+1)(D+1)/(k+1)) - 1, evenly spread and
             biased toward the middle
  cluster    k consecutive slots centered at D/2
  front/middle/end   a single special block at 0, D//2, D-1
  sandwich   first and last slots forced, the rest scattered between

Layout files are plain text, one block per line (kind plus optional
key=value overrides); parse and format round-trip losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attention import check_window
from .hybrid import FusionSpec
from .tensor import ContractError

BLOCK_KINDS = ("attn", "swa", "mamba", "intra")
POSITIONINGS = ("scatter", "cluster", "front", "middle", "end", "sandwich")


class LayoutError(ValueError):
    """A stacking plan that cannot be realized as requested."""


@dataclass(frozen=True)
class BlockSpec:
    """One layer of the stack.

    window/sink apply to kind="swa"; fusion and dim_ratio to
    kind="intra"; moe swaps the block's dense FFN for the
    shared-plus-routed mixture.
    """

    kind: str
    window: int | None = None
    sink: int | None = None
    fusion: FusionSpec | None = None
    dim_ratio: tuple[float, float] | None = None
    moe: bool = False

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ContractError(f"unknown block kind {self.kind!r}; expected one of {BLOCK_KINDS}")
        if self.kind != "swa" and (self.window is not None or self.sink is not None):
            raise ContractError(f"window/sink only apply to swa blocks, not {self.kind!r}")
        check_window(self.window, self.sink)
        if self.kind != "intra" and (self.fusion is not None or self.dim_ratio is not None):
            raise ContractError(f"fusion/dim_ratio only apply to intra blocks, not {self.kind!r}")


@dataclass(frozen=True)
class LayoutSpec:
    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        if not self.blocks:
            raise LayoutError("layout must contain at least one block")

    @property
    def depth(self) -> int:
        return len(self.blocks)

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in BLOCK_KINDS}
        for b in self.blocks:
            out[b.kind] += 1
        return out

    def indices_of(self, kind: str) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.blocks) if b.kind == kind)

    def reversed(self) -> "LayoutSpec":
        return LayoutSpec(blocks=tuple(reversed(self.blocks)))

    def describe(self) -> str:
        return "".join(
            {"attn": "A", "swa": "W", "mamba": "M", "intra": "H"}[b.kind] for b in self.blocks
        )


def scatter_indices(depth: int, k: int) -> tuple[int, ...]:
    """Evenly spread k slots over depth, middle-biased; k=1 gives depth//2."""
    if k < 0 or k > depth:
        raise LayoutError(f"cannot place {k} special blocks in depth {depth}")
    return tuple((j + 1) * (depth + 1) // (k + 1) - 1 for j in range(k))


def ratio_to_count(depth: int, special: float, base: float) -> int:
    """Round-half-up share of depth for the special kind."""
    if special < 0 or base < 0 or special + base == 0:
        raise LayoutError(f"bad ratio {_format_ratio((special, base))}")
    return int(depth * special / (special + base) + 0.5)


def special_positions(depth: int, k: int, positioning: str) -> tuple[int, ...]:
    if positioning not in POSITIONINGS:
        raise LayoutError(f"unknown positioning {positioning!r}; expected one of {POSITIONINGS}")
    if k == 0:
        return ()
    if positioning == "scatter":
        return scatter_indices(depth, k)
    if positioning == "cluster":
        start = (depth - k) // 2
        return tuple(range(start, start + k))
    if positioning == "sandwich":
        if k < 2:
            raise LayoutError("sandwich needs at least 2 special blocks (both ends are forced)")
        if depth < 2:
            raise LayoutError("sandwich needs depth >= 2")
        inner = tuple(i + 1 for i in scatter_indices(depth - 2, k - 2))
        return (0,) + inner + (depth - 1,)
    # front / middle / end place exactly one block
    if k != 1:
        raise LayoutError(f"positioning {positioning!r} places a single block, got k={k}")
    return {"front": (0,), "middle": (depth // 2,), "end": (depth - 1,)}[positioning]


def plan_layout(
    depth: int,
    ratio: tuple[float, float] | None = None,
    counts: tuple[int, int] | None = None,
    special: str = "attn",
    base: str = "mamba",
    positioning: str = "scatter",
    special_spec: BlockSpec | None = None,
    base_spec: BlockSpec | None = None,
) -> LayoutSpec:
    """Place `special` blocks among `base` blocks.

    Exactly one of `ratio` (a share, e.g. (1, 5)) or `counts`
    (explicit (n_special, n_base), must sum to depth) chooses how many.
    A ratio that rounds to zero special blocks at this depth is
    degenerate and raises rather than silently dropping the kind.
    Per-block overrides (window, fusion, moe, ...) come from
    `special_spec` / `base_spec`, whose kinds must agree.
    """
    if (ratio is None) == (counts is None):
        raise LayoutError("pass exactly one of ratio= or counts=")
    if depth < 1:
        raise LayoutError("depth must be >= 1")
    if counts is not None:
        n_special, n_base = counts
        if n_special < 0 or n_base < 0 or n_special + n_base != depth:
            raise LayoutError(f"counts {counts} must be nonnegative and sum to depth {depth}")
        k = n_special
    else:
        s, m = ratio
        k = ratio_to_count(depth, s, m)
        if k == 0 and s > 0:
            raise LayoutError(
                f"degenerate plan: ratio {_format_ratio(ratio)} rounds to zero {special!r} "
                f"blocks at depth {depth}"
            )

    spec_s = special_spec if special_spec is not None else BlockSpec(kind=special)
    spec_b = base_spec if base_spec is not None else BlockSpec(kind=base)
    if spec_s.kind != special or spec_b.kind != base:
        raise LayoutError("special_spec/base_spec kinds must match special/base")

    positions = set(special_positions(depth, k, positioning))
    blocks = tuple(spec_s if i in positions else spec_b for i in range(depth))
    return LayoutSpec(blocks=blocks)


def uniform_layout(depth: int, spec: BlockSpec) -> LayoutSpec:
    return LayoutSpec(blocks=(spec,) * depth)


def lint_layout(layout: LayoutSpec) -> list[str]:
    """Warnings for placements the ablations punish; empty list is clean.

    Special here means any non-mamba kind. Rules: never put a special
    block at the front; pinning specials to both ends (sandwich) is the
    worst measured placement; a special share beyond 1:1 is flagged as
    informational.
    """
    warnings: list[str] = []
    special_idx = [i for i, b in enumerate(layout.blocks) if b.kind != "mamba"]
    n_special = len(special_idx)
    if n_special and n_special < layout.depth:
        if special_idx[0] == 0:
            warnings.append(
                "warning: special block at the front (index 0); front placement degrades quality"
            )
        if n_special >= 2 and special_idx[0] == 0 and special_idx[-1] == layout.depth - 1:
            warnings.append(
                "warning: sandwich placement (special blocks pinned to both ends) measured worst"
            )
        if n_special * 2 > layout.depth:
            warnings.append(
                f"info: special share {n_special}/{layout.depth} exceeds 1:1; "
                "most of the quality arrives at much lower shares"
            )
    return warnings


# ---------------------------------------------------------------------------
# layout files
# ---------------------------------------------------------------------------

LAYOUT_HEADER = "# hybridlab-layout-v1"


def _format_ratio(ratio: tuple[float, float]) -> str:
    return f"{ratio[0]:g}:{ratio[1]:g}"


def parse_ratio(text: str) -> tuple[float, float]:
    """'1:5' -> (1.0, 5.0): a plan's special:base share or an intra dim_ratio."""
    try:
        a, b = (float(part) for part in text.split(":"))
    except ValueError:
        a = b = math.nan
    if not (math.isfinite(a) and math.isfinite(b)):
        raise LayoutError(f"bad ratio {text!r}, expected a:b")
    return a, b


def format_layout(layout: LayoutSpec) -> str:
    lines = [LAYOUT_HEADER]
    for b in layout.blocks:
        parts = [b.kind]
        if b.window is not None:
            parts.append(f"window={b.window}")
        if b.sink is not None:
            parts.append(f"sink={b.sink}")
        if b.fusion is not None:
            f = b.fusion
            parts.append(f"fusion={f.norm},{f.scalar},{f.fusion},{f.out_projs}")
        if b.dim_ratio is not None:
            parts.append(f"ratio={_format_ratio(b.dim_ratio)}")
        if b.moe:
            parts.append("moe")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_layout(text: str) -> LayoutSpec:
    lines = text.splitlines()
    nonblank = next((ln.strip() for ln in lines if ln.strip()), "")
    if nonblank != LAYOUT_HEADER:
        raise LayoutError(f"layout text must start with {LAYOUT_HEADER!r}")
    blocks: list[BlockSpec] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        kwargs: dict = {}
        for token in parts[1:]:
            if token == "moe":
                kwargs["moe"] = True
                continue
            if "=" not in token:
                raise LayoutError(f"bad layout token {token!r} in line {raw!r}")
            key, value = token.split("=", 1)
            if key == "window":
                kwargs["window"] = int(value)
            elif key == "sink":
                kwargs["sink"] = int(value)
            elif key == "ratio":
                kwargs["dim_ratio"] = parse_ratio(value)
            elif key == "fusion":
                fields = value.split(",")
                if len(fields) != 4:
                    raise LayoutError(f"bad fusion spec {value!r}")
                kwargs["fusion"] = FusionSpec(fields[0], fields[1], fields[2], int(fields[3]))
            else:
                raise LayoutError(f"unknown layout key {key!r}")
        blocks.append(BlockSpec(kind=kind, **kwargs))
    if not blocks:
        raise LayoutError("layout file contains no blocks")
    return LayoutSpec(blocks=tuple(blocks))


def save_layout(path: str, layout: LayoutSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_layout(layout))


def load_layout(path: str) -> LayoutSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_layout(fh.read())
