"""Which library calls the traced run wraps, and the probes it takes.

Every wrapped name is public in its hybridlab module; the wrappers live
here, not in the library. The op counter wraps each tensor op constructor
(the tensor functions that build their result through the tape), so it
counts ops created with and without a tape.
"""

from __future__ import annotations

import gc
import inspect

import numpy as np

from tracer import Tracer

MIB = 1024.0 * 1024.0


def unique_bytes(arrays) -> int:
    """Bytes of the distinct buffers behind arrays (a view counts its base once)."""
    seen: dict[int, int] = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def instrument(tr: Tracer) -> None:
    from hybridlab import attention, decode, harness, hybrid, model, moe, nn, ssm, tensor

    for fn in list(vars(tensor).values()):
        if inspect.isfunction(fn) and fn.__module__ == tensor.__name__ and "_make" in fn.__code__.co_names:
            tr.replace_everywhere(fn, tr.counted(fn))

    def tape_probe(_loss, *_args):
        nodes = tensor.default_tape().nodes
        tr.sample("tape_nodes", len(nodes))
        tr.sample("tape_mib", unique_bytes(n.out.data for n in nodes) / MIB)

    def grad_probe(_out, *_args):
        nodes = tensor.default_tape().nodes
        grads = [n.out.grad for n in nodes if n.out.grad is not None]
        tr.sample("nonleaf_grad_mib", unique_bytes(grads) / MIB)

    def garbage_probe(_out, *_args):
        tr.sample("cyclic_garbage", gc.collect())

    def expert_rows(fn):
        def counted_rows(x, *args):
            tr.sample("moe_rows", x.shape[0])
            return fn(x, *args)
        return counted_rows

    # harness: the training step and its parts
    tr.replace_everywhere(harness.train_model, tr.spanned("harness.train_model", harness.train_model))
    tr.replace(harness, "masked_next_token_loss",
               tr.spanned("harness.fwd", harness.masked_next_token_loss, after=tape_probe))
    tr.replace(harness, "backward", tr.spanned("harness.bwd", harness.backward, after=grad_probe))
    tr.replace(harness, "clip_global_norm", tr.spanned("harness.opt", harness.clip_global_norm))
    tr.replace(harness.AdamW, "step", tr.spanned("harness.opt", harness.AdamW.step))
    tr.replace(harness, "reset_tape",
               tr.spanned("harness.reset_tape", harness.reset_tape, after=garbage_probe))

    # model: mixers per kind and FFNs
    tr.replace(model.Block, "mixer", tr.spanned("model.mixer", model.Block.mixer, tag=lambda b, *a: b.kind))
    tr.replace(model.Block, "ffn", tr.spanned(
        "model.ffn", model.Block.ffn, tag=lambda b, *a: "moe" if b.spec.moe else "dense"))

    # attention, ssm, moe, nn
    tr.replace_everywhere(attention.attention_context,
                          tr.spanned("attention.context", attention.attention_context))
    tr.replace_everywhere(ssm.ssm_scan, tr.spanned("ssm.scan", ssm.ssm_scan))
    tr.replace_everywhere(ssm.ssm_step, tr.spanned("ssm.step", ssm.ssm_step))
    tr.replace_everywhere(hybrid.ssm_branch_step, tr.spanned("ssm.step", hybrid.ssm_branch_step))
    tr.replace_everywhere(moe.moe_forward, tr.spanned(
        "moe.forward", moe.moe_forward, tag=lambda x, *a: x.shape[0] * x.shape[1]))
    tr.replace(moe, "siglu_ffn", expert_rows(moe.siglu_ffn))
    tr.replace_everywhere(nn.apply_rope, tr.spanned("nn.rope", nn.apply_rope))

    # decode: prefill, steps, cache reads and writes
    tr.replace_everywhere(decode.prefill, tr.spanned("decode.prefill", decode.prefill))
    tr.replace_everywhere(decode.decode_step, tr.spanned(
        "decode.step", decode.decode_step,
        tag=lambda m, state, tokens: (state.position, np.atleast_1d(tokens).shape[0])))
    for cache in (decode.FullKV, decode.RollingKV):
        tr.replace(cache, "read", tr.spanned("decode.cache_read", cache.read))
        tr.replace(cache, "extend", tr.spanned("decode.cache_write", cache.extend))
