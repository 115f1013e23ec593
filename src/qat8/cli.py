"""Command-line interface.

Exit codes: 0 success, 2 bad configuration or input, 3 non-finite numbers
(training diverged, or a model met NaN/Inf), 4 unreadable or damaged
artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config
from .format import (
    FormatError,
    inspect_header,
    load_artifact,
    save_artifact,
)
from .model import TransformerEncoderModel
from .quant import TrackerStateError
from .runtime import ExportError, dq_quantize, export
from .task import percent_accuracy, run_comparison
from .tensor import NonFiniteError
from .training import TrainingDivergedError, train


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    task = cfg.task()
    train_x, train_y, eval_x, eval_y = task.splits(cfg.num_train, cfg.num_eval)
    model = TransformerEncoderModel(cfg.model_config(), quant_enabled=args.mode == "qat",
                                    seed=cfg.seed)
    report = train(model, train_x, train_y, cfg.train_config())
    # a QAT model's eval runs the Int8 layers export builds, so this is the
    # accuracy of the model that ships, bit for bit
    acc = percent_accuracy(model, eval_x, eval_y, cfg.eval_batch)

    data = save_artifact(model, args.out)
    print(f"mode: {args.mode}")
    print(f"train accuracy by epoch: "
          f"{' '.join(f'{100.0 * a:.2f}' for a in report.accuracy_curve)}")
    print(f"eval accuracy: {acc:.2f}%")
    print(f"wrote {args.out} ({len(data)} bytes)")
    if args.metrics:
        _write_json(args.metrics, {
            "mode": args.mode,
            "train": report.to_dict(),
            "eval_accuracy_percent": acc,
            "artifact_bytes": len(data),
        })
        print(f"wrote {args.metrics}")
    return 0


def _cmd_quantize(args) -> int:
    model = load_artifact(args.model)
    if args.method == "export":
        converted = export(model)
    else:
        converted = dq_quantize(model)
    out_data = save_artifact(converted, args.out)
    in_size = os.path.getsize(args.model)
    ratio = len(out_data) / in_size
    print(f"method: {args.method}")
    print(f"input:  {args.model} ({in_size} bytes)")
    print(f"output: {args.out} ({len(out_data)} bytes)")
    print(f"size ratio: {ratio:.3f}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    model = load_artifact(args.model)
    task = cfg.task()
    train_x, train_y, eval_x, eval_y = task.splits(cfg.num_train, cfg.num_eval)
    inputs, labels = ((train_x, train_y) if args.split == "train"
                      else (eval_x, eval_y))
    acc = percent_accuracy(model, inputs, labels, cfg.eval_batch)
    print(f"{args.split} accuracy: {acc:.2f}% ({len(labels)} examples)")
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config, args.set)

    def progress(seed, base, qat, dq):
        print(f"seed {seed}: baseline {base:.2f}%  qat {qat:.2f}%  dq {dq:.2f}%",
              flush=True)

    report = run_comparison(cfg.model_config(), cfg.task(), cfg.train_config(),
                            cfg.seeds, cfg.num_train, cfg.num_eval,
                            cfg.eval_batch, progress=progress)
    print()
    print(report.to_text(), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    with open(args.model, "rb") as fh:
        info = inspect_header(fh.read())
    print(json.dumps(info, sort_keys=True, indent=2))
    return 0


def _cmd_size_report(args) -> int:
    baseline_size = os.path.getsize(args.baseline)
    quantized_size = os.path.getsize(args.quantized)
    for path, size in ((args.baseline, baseline_size), (args.quantized, quantized_size)):
        if size == 0:
            raise ValueError(f"{path} is empty: a size ratio needs two non-empty files")
    print(f"baseline:  {args.baseline} ({baseline_size} bytes)")
    print(f"quantized: {args.quantized} ({quantized_size} bytes)")
    print(f"size ratio: {quantized_size / baseline_size:.3f}")
    print(f"compression: {baseline_size / quantized_size:.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qat8",
        description="Train, quantize, and compare 8-bit transformer encoders.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")

    p = sub.add_parser("train", help="train a model on the synthetic task")
    add_common(p)
    p.add_argument("--mode", choices=["fp32", "qat"], default="fp32")
    p.add_argument("--out", required=True, help="output artifact path")
    p.add_argument("--metrics", default=None, help="optional metrics JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("quantize", help="convert a checkpoint for inference")
    p.add_argument("--model", required=True, help="training checkpoint (.qat)")
    p.add_argument("--method", choices=["export", "dq"], required=True,
                   help="export: freeze a qat checkpoint to the integer "
                        "runtime; dq: dynamically quantize an fp32 checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("eval", help="evaluate an artifact on the task")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=["train", "eval"], default="eval")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="baseline vs qat vs dq over seeds")
    add_common(p)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("inspect", help="print artifact header and sizes")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("size-report", help="compare two artifact file sizes")
    p.add_argument("--baseline", required=True)
    p.add_argument("--quantized", required=True)
    p.set_defaults(func=_cmd_size_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, ExportError, TrackerStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
