"""Hybrid attention/SSM block stacks with exact cost accounting.

The package is organized bottom-up:

  tensor     numpy-backed arrays with a reverse-mode tape
  nn         norms, SiGLU FFN, rotary embedding
  attention  causal GQA, full-context or sliding-window + sinks
  ssm        selective state-space mixer (chunked scan == step fold)
  hybrid     intra-layer fusion of half-width attention and SSM heads
  moe        shared + top-1 routed experts, loss-free balancing
  layout     block-sequence planning, linting, and layout files
  config     dimension bundles and named presets
  model      runnable block stacks
  costs      closed-form params / FLOPs / cache accounting
  decode     incremental generation with per-kind bounded caches
  harness    synthetic tasks, trainer, retrieval evaluation
  serialize  checkpoints and versioned CSVs
  verify     executable property suites (the `verify` CLI command)
"""

from .attention import AttnConfig, attention_forward, causal_mask, swa_mask
from .config import (
    VOCAB_128K,
    ModelConfig,
    PRESET_NAMES,
    base_config,
    preset,
    with_vocab,
)
from .costs import (
    CostReport,
    block_cache_bytes,
    block_params,
    cache_bytes,
    cost_report,
    decode_step_flops,
    flops_per_sample,
    golden_rows,
    mixer_params,
    model_decode_step_flops,
    model_param_shapes,
    params_non_embedding,
    train_flops,
)
from .decode import DecodeState, decode_step, generate, measure_decode, prefill
from .harness import (
    NeedleTask,
    NiahGrid,
    TrainConfig,
    TrainingDiverged,
    gen_copy_batch,
    gen_needle_batch,
    niah_eval,
    positionwise_nll,
    train_model,
    trapezoid_lr,
)
from .hybrid import (
    FUSION_PRESETS,
    FusionSpec,
    IntraHybridConfig,
    intra_hybrid_forward,
    legal_fusion_specs,
)
from .layout import (
    BlockSpec,
    LayoutError,
    LayoutSpec,
    lint_layout,
    load_layout,
    parse_layout,
    plan_layout,
    save_layout,
    uniform_layout,
)
from .model import HybridModel
from .moe import MoeConfig, RouterState, moe_forward, route
from .nn import RopeConfig, apply_rope, rms_norm, siglu_ffn
from .serialize import load_checkpoint, load_model, read_niah_csv, save_checkpoint, save_model, write_niah_csv
from .ssm import SsmConfig, SsmState, ssm_forward, ssm_scan, ssm_step
from .tensor import (
    ContractError,
    DimensionError,
    GradTape,
    NonFiniteError,
    Tensor,
    backward,
    cross_entropy_logits,
    named_rng,
    no_grad,
    reset_tape,
    set_chaos,
)
from .verify import run_suites

__version__ = "0.1.0"
