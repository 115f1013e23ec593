"""Check that the tier-1 tests still kill the known mutants of ``src/qat8``.

Each mutant below is one exact source substitution in one module of the
package, with the ids of the tests that must kill it. For each mutant the
script copies ``src/`` to a temporary directory, applies the substitution
there, and runs only those tests against the copy (``PYTHONPATH`` points at
it; the checkout's ``src/`` is never written). A mutant is killed when
every one of its tests fails; a test that errors, or an id that collects
nothing, does not count. Before any mutant runs, the same tests must pass
on an unmutated copy.

Only the standard library is used, and the name does not match
``test_*.py``, so pytest does not collect this file. From the repo root:

    python tests/mutants.py [mutant name ...]

It exits non-zero when a substitution no longer matches its module exactly
once, when the unmutated copy fails, or when a mutant survives. A change to
a function listed here runs it and cites the result; a change that makes a
new mutant by hand adds it to the table.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str        # file under src/qat8
    old: str           # must occur exactly once in the module
    new: str
    killed_by: tuple   # pytest node ids, relative to the repo root


REF = "tests/test_reference_ops.py::"
TENSOR = "tests/test_tensor.py::"

MUTANTS = (
    # eval runs frozen Int8 FCs in chunks of EVAL_CHUNK sequences, and only those
    Mutant("chunks-for-fp32", "model.py",
           "if not isinstance(net.classifier, QuantizedLinearFrozen) or",
           "if not isinstance(net.classifier, (QuantizedLinearFrozen, QuantizedLinear)) or",
           (REF + "test_eval_runs_frozen_int8_fcs_in_chunks[fp32]",)),
    Mutant("chunks-for-dq", "model.py",
           "if not isinstance(net.classifier, QuantizedLinearFrozen) or",
           "if isinstance(net.classifier, QuantizedLinear) or",
           (REF + "test_eval_runs_frozen_int8_fcs_in_chunks[int8-dynamic]",
            REF + "test_predict_logits_matches_every_block_on_every_position[int8-dynamic-256]")),
    Mutant("last-chunk-dropped", "model.py",
           "for i in range(0, len(ids), EVAL_CHUNK)",
           "for i in range(0, len(ids) - EVAL_CHUNK, EVAL_CHUNK)",
           (REF + "test_chunked_eval_matches_the_whole_batch[int8-frozen-65]",
            REF + "test_chunked_eval_matches_the_whole_batch[qat-128]")),
    # NaN is caught by the tie mask, with no pass of its own
    Mutant("nan-escapes-the-tie-mask", "quant.py",
           "kept = np.abs(v, out=v) < _RECOMPUTE_AT\n    if not kept.all():\n"
           "        recompute = ~kept\n",
           "recompute = np.abs(v, out=v) >= _RECOMPUTE_AT\n    if recompute.any():\n",
           (REF + "test_integer_linears_refuse_what_has_no_integer[nan]",
            "tests/test_quant.py::test_quantize_saturates_infinity_and_refuses_nan[int8]")),
    # the exact GEMM leaves float32 past K = 1024
    Mutant("float32-past-k-1024", "tensor.py",
           "ftype = np.float32 if k <= _F32_EXACT_MAX_K else np.float64",
           "ftype = np.float32",
           (TENSOR + "test_gemm_i8_i32_just_past_float32_limit_is_exact",
            REF + "test_integer_linears_past_k_1024_match_reference[1100]")),
    # eval runs the last block past attention on the first token only, except DQ
    Mutant("first-token-eval-off", "model.py",
           "first_token_eval = True", "first_token_eval = False",
           tuple(REF + "test_eval_runs_the_last_block_past_attention_on_the_first_token_only"
                 f"[{kind}]" for kind in ("fp32", "qat", "int8-frozen"))),
    Mutant("first-token-eval-for-dq", "runtime.py",
           "first_token_eval = False", "first_token_eval = True",
           (REF + "test_eval_runs_the_last_block_past_attention_on_the_first_token_only"
                  "[int8-dynamic]",
            REF + "test_predict_logits_matches_every_block_on_every_position[int8-dynamic-1]")),
    Mutant("first-token-in-training", "model.py",
           "logits = self._encode(ids, True, slice(None))",
           "logits = self._encode(ids, True, slice(0, 1))",
           (REF + "test_training_runs_every_block_on_every_position[False]",
            REF + "test_training_runs_every_block_on_every_position[True]")),
    # GELU and the dynamic FC run inputs past ROW_BLOCK rows in blocks
    Mutant("gelu-last-block-dropped", "layers.py",
           "for i in range(0, len(x_rows), ROW_BLOCK)",
           "for i in range(0, len(x_rows) - ROW_BLOCK, ROW_BLOCK)",
           (REF + "test_gelu_in_row_blocks_matches_reference[1025]",
            REF + "test_gelu_in_row_blocks_matches_reference[4097]",
            REF + "test_eval_in_row_blocks_matches_the_whole_batch[fp32-65]")),
    Mutant("gelu-blocks-keep-no-tanh", "layers.py",
           "if not keep_tanh and x.size > ROW_BLOCK * n and",
           "if x.size > ROW_BLOCK * n and",
           (REF + "test_gelu_in_row_blocks_matches_reference[1025]",)),
    Mutant("dq-block-loop-stops-short", "runtime.py",
           "for i in range(0, len(x2), ROW_BLOCK)",
           "for i in range(0, len(x2) - ROW_BLOCK, ROW_BLOCK)",
           (REF + "test_dynamic_linear_in_row_blocks_matches_reference[1025-48]",
            REF + "test_dynamic_linear_in_row_blocks_matches_reference[1025-1025]",
            REF + "test_eval_in_row_blocks_matches_the_whole_batch[int8-dynamic-256]")),
    # fake quantization gives the bytes of the integer grid, which has no -0
    Mutant("fake-quantize-keeps-minus-zero", "quant.py", "    r += 0.0\n", "",
           (REF + "test_fake_quantize_matches_the_integer_grid[127-power-of-two-float32]",
            REF + "test_fake_quantize_matches_the_integer_grid[7-not-float32-float64]")),
    # quantize recomputes its ties from the float64 product, at 0.5 - 2**-54
    Mutant("no-tie-recompute", "quant.py",
           "        r[recompute] = np.trunc(exact + np.copysign(0.5, exact))\n", "",
           (REF + "test_quantize_recomputes_a_float32_tie_the_exact_product_misses",
            REF + "test_quantize_ties_match_reference[127]")),
    Mutant("recompute-threshold-one-half", "quant.py",
           "_RECOMPUTE_AT = 0.5 - 2.0 ** -54", "_RECOMPUTE_AT = 0.5",
           (REF + "test_quantize_keeps_the_half_away_formula_below_one_half_in_float64",)),
    Mutant("max-abs-keeps-minus-zero", "quant.py",
           "return float(np.maximum(t.max(), -t.min())) + 0.0",
           "return float(np.maximum(t.max(), -t.min()))",
           (REF + "test_max_abs_matches_reference",)),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, test_ids) -> tuple[int, set[str]]:
    """Run the tests on the package under ``src``: pytest's exit status and
    the ids of the tests that failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import qat8; print(qat8.__file__)"],
                           env=env, capture_output=True, text=True, cwd=ROOT)
    if not where.stdout.startswith(str(src)):
        raise RuntimeError(f"qat8 imports from {where.stdout.strip()!r}, not the copy {src}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *test_ids]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed


def run(mutants) -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        control, _ = _pytest(_copy_src(Path(tmp) / "control"),
                             sorted({i for m in mutants for i in m.killed_by}))
        if control != 0:
            print(f"the unmutated copy fails its tests (pytest exit {control})")
            return 1
        for m in mutants:
            src = _copy_src(Path(tmp) / m.name)
            path = src / "qat8" / m.module
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: the substitution matches {text.count(m.old)} times in {m.module}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            _, failed = _pytest(src, m.killed_by)
            missed = [i for i in m.killed_by if i not in failed]
            print(f"{m.name}: " + (f"SURVIVED {', '.join(missed)}" if missed else "killed"))
            bad += bool(missed)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return int(bad > 0)


def main(argv) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    return run([m for m in MUTANTS if not names or m.name in names])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
