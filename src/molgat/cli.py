"""Command-line interface.

Subcommands cover the whole pipeline on files: ``synth`` emits toy corpora,
``featurize`` turns structure files into a binary graph cache, ``train`` fits
a model from cache pools, ``evaluate``/``predict``/``poses`` score caches with
a checkpoint. Every command echoes its fully resolved configuration into the
output directory, writes files atomically (write-then-rename; the training
log is written row by row), and is bit-reproducible for a fixed ``--seed``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import itertools
import os
import sys

import numpy as np

from . import chem, graphs, metrics, synthetic
from .errors import DataError, MolgatError, NumericError, ParseError
from .fileio import atomic_open
from .model import ModelConfig, load_params, score
from .training import (
    SCREEN_CATEGORIES,
    TRAIN_CATEGORIES,
    TrainConfig,
    draws_per_pool,
    split_by_protein,
    train,
)

HISTOGRAM_BINS = 50


class _UsageError(Exception):
    """Flag or config values that parse but are invalid (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 (argparse defaults to 2, which we reserve for data errors).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_csv(path, header, rows) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_config_file(path) -> dict:
    """Every section of an INI config file. ``[model]`` and ``[train]`` may
    hold only their ``_SETTINGS`` keys; ``[run]``, an echo's record of its
    run, is read but sets nothing. ``[DEFAULT]`` is no special section here."""
    cfg = configparser.ConfigParser(default_section="")  # no header can name ""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg.read_file(fh)
            sections = {section: dict(cfg.items(section)) for section in cfg.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise DataError(f"malformed config file {path}: {exc}") from None
    for section, values in sections.items():
        if section == "run":
            continue
        if section not in _SETTINGS:
            raise _UsageError(f"config file {path}: unknown section [{section}] (model, train or run)")
        for key in values:
            if key not in _SETTINGS[section][1]:
                raise _UsageError(f"config file {path}: [{section}] has no setting {key!r}")
    return sections


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"takes a comma list of integers, got {text!r}") from None


def _metric_list(text: str) -> list[str]:
    """The metrics a comma list names, in ``metrics.METRICS`` order."""
    names = text.split(",")
    if not set(names) <= set(metrics.METRICS):
        raise argparse.ArgumentTypeError(
            f"takes a comma list among {','.join(metrics.METRICS)}, got {text!r}"
        )
    return [m for m in metrics.METRICS if m in names]


# The keys settable by flag or INI file, with their parsers, per config
# section; a key set by neither keeps its dataclass default. Each key is also
# a ``train`` flag, ``--`` plus the key with dashes, in this order.
_SETTINGS = {
    "model": (ModelConfig, {"num_gat_layers": int, "gat_dim": int, "fc_dims": _int_list,
                            "dropout_rate": float}),
    "train": (TrainConfig, {"batch_size": int, "iterations": int, "learning_rate": float,
                            "seed": int, "checkpoint_every": int}),
}
_SETTING_HELP = {"fc_dims": "comma-separated, last must be 1"}


def _resolved(section: str, args, file_cfg: dict):
    """The section's config from flags, then the INI file, then the defaults."""
    cls, parsers = _SETTINGS[section]
    values = {}
    for key, parse in parsers.items():
        if (flag := getattr(args, key)) is not None:
            values[key] = flag
        elif key in file_cfg.get(section, {}):
            try:
                values[key] = parse(file_cfg[section][key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _UsageError(f"config file {args.config}: [{section}] {key}: {exc}") from None
    return cls(**values)


# Parsed arguments that no echo records: argparse's own entries, the output
# path, and train's config file, whose settings are echoed as resolved.
_NOT_ECHOED = ("command", "func", "parser", "out", "config")


def _write_echo(path, args, configs: dict) -> None:
    """Write a run's config echo as an INI file: for each ``configs`` entry,
    a ``[model]`` or ``[train]`` section holding the resolved config under its
    ``_SETTINGS`` keys; then ``[run]``, every other parsed argument in flag
    order. A list is comma-joined; each value is ``str``'d and ``_escaped``,
    with ``%`` written as ``%%`` so that a ``ConfigParser`` reads it back.

    The text is what ``ConfigParser.write`` writes: ``key = value`` lines,
    each newline in a value followed by a tab, and a blank line after each
    section. No parser is built, so a command leaves no reference cycles
    for the collector."""
    sections = {name: {key: getattr(cfg, key) for key in _SETTINGS[name][1]} for name, cfg in configs.items()}
    settings = {key for values in sections.values() for key in values}
    sections["run"] = {key: value for key, value in vars(args).items()
                       if key not in _NOT_ECHOED and key not in settings}
    with atomic_open(path) as fh:
        for name, values in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in values.items():
                text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
                text = _escaped(text).replace("%", "%%").replace("\n", "\n\t")
                fh.write(f"{key} = {text}\n")
            fh.write("\n")


def _escaped(text: str) -> str:
    """``text`` with each character UTF-8 cannot encode written as a backslash
    escape: a path byte that is not UTF-8 reaches Python as a lone surrogate."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _jsonl_sample(line: str, path, lineno: int, cutoff: float, stats: dict | None):
    """The graph sample of the record on one JSON line, its protein pruned
    at ``cutoff``. The parse and the prune run with the cyclic collector
    paused, as ``parse_complex`` runs, while the whole record's objects
    live."""
    with chem.collector_paused():
        rec = graphs.prune_protein(chem.record_from_json_line(line, path=path, lineno=lineno), cutoff=cutoff)
    return graphs.build_sample(rec, stats)


def _cache_samples(paths):
    """The samples of the caches at ``paths``, in order, decoded one at a
    time; every cache's magic, checksum and version are checked first."""
    return itertools.chain.from_iterable([graphs.iter_cache(path) for path in paths])


def _is_cache_file(path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(len(graphs.CACHE_MAGIC)) == graphs.CACHE_MAGIC


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_featurize(args) -> int:
    if not args.cutoff > 0:
        raise _UsageError(f"--cutoff must be positive, got {args.cutoff}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    stats = {"dropped_atoms": 0, "clamped_annotations": 0}
    samples = []
    failures = []
    category_counts: dict[str, int] = {}

    def keep(sample):
        samples.append(sample)
        category_counts[sample.category] = category_counts.get(sample.category, 0) + 1

    for spec in args.inputs:
        try:
            if args.format == "jsonl":
                for lineno, line in chem.jsonl_lines(spec):
                    try:
                        keep(_jsonl_sample(line, spec, lineno, args.cutoff, stats))
                    except (DataError, ParseError) as exc:
                        failures.append(_escaped(f"{spec}:{lineno}: {exc}"))
            else:
                if ":" not in spec:
                    raise DataError(
                        f"sdf+pdb input must look like LIGAND.sdf:PROTEIN.pdb, got {spec!r}"
                    )
                lig_path, prot_path = spec.split(":", 1)
                rec = chem.parse_complex(lig_path, prot_path, category=args.category, stats=stats, cutoff=args.cutoff)
                keep(graphs.build_sample(rec, stats))
        except (DataError, ParseError, OSError) as exc:
            failures.append(_escaped(f"{spec}: {exc}"))

    print(f"parsed {len(samples)} sample(s); {len(failures)} rejected")
    for name in sorted(category_counts):
        print(f"  {name}: {category_counts[name]}")
    print(f"  dropped atoms: {stats['dropped_atoms']}")
    print(f"  clamped annotations: {stats['clamped_annotations']}")
    for line in failures:
        print(f"  rejected: {line}")
    if not samples:
        print("error: no samples survived featurization", file=sys.stderr)
        return 2
    graphs.write_cache(samples, args.out)
    _write_echo(f"{args.out}.config.ini", args, {})
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    if not 0 <= args.val_fraction < 1:
        raise _UsageError(f"--val-fraction must be in [0, 1), got {args.val_fraction}")
    file_cfg = _load_config_file(args.config) if args.config else {}
    categories = SCREEN_CATEGORIES if args.screening_only else TRAIN_CATEGORIES
    try:
        model_cfg = _resolved("model", args, file_cfg)
        train_cfg = _resolved("train", args, file_cfg)
        draws_per_pool(train_cfg.batch_size, len(categories))
    except (ValueError, DataError) as exc:
        raise _UsageError(exc) from exc

    samples = [s for path in args.cache for s in graphs.read_cache(path) if s.label is not None]
    if not samples:
        raise DataError("no labeled samples in the given cache(s)")
    train_samples, val_samples = split_by_protein(samples, args.val_fraction, train_cfg.seed)
    pools = {name: [] for name in categories}
    for s in train_samples:
        if s.category in pools:
            pools[s.category].append(s)
    # Validation picks best.ckpt, so it scores only the categories the run trains on.
    val_samples = [s for s in val_samples if s.category in pools]
    for name, pool in pools.items():
        if not pool:
            raise DataError(
                f"category pool '{name}' is empty; provide samples or use --screening-only"
            )

    os.makedirs(args.out, exist_ok=True)
    _write_echo(os.path.join(args.out, "config.resolved.ini"), args, {"model": model_cfg, "train": train_cfg})
    result = train(pools, val_samples, model_cfg, train_cfg, args.out)
    print(f"final loss {result.final_loss:.6f}; log at {result.log_path}")
    print(f"latest checkpoint: {result.latest_path}")
    if result.best_path:
        print(f"best checkpoint (val auroc {result.best_val_auroc:.4f}): {result.best_path}")
    return 0


def _scored_items(samples, params, config) -> list[metrics.ScoredItem]:
    """Score each sample of an iterable as it comes; only the items are kept."""
    return [
        metrics.ScoredItem(
            score=score(s, params, config),
            label=-1 if s.label is None else s.label,
            protein_id=s.protein_id,
            complex_id=s.complex_id,
            rmsd=s.rmsd,
        )
        for s in samples
    ]


def cmd_evaluate(args) -> int:
    params, config, _ = load_params(args.checkpoint)
    labeled = (s for s in _cache_samples(args.cache) if s.label is not None)
    items = _scored_items(labeled, params, config)
    if not items:
        raise DataError("no labeled samples to evaluate")
    os.makedirs(args.out, exist_ok=True)
    report = metrics.evaluate_scored(items, args.metrics)
    with atomic_open(os.path.join(args.out, "report.json")) as fh:
        fh.write(report.to_json() + "\n")
    report.write_csv(os.path.join(args.out, "report.csv"))
    scores = [i.score for i in items]
    labels = [i.label for i in items]
    metrics.write_curve_csv(os.path.join(args.out, "roc_curve.csv"), scores, labels, "roc")
    metrics.write_curve_csv(os.path.join(args.out, "pr_curve.csv"), scores, labels, "pr")
    _write_echo(os.path.join(args.out, "config.resolved.ini"), args, {})
    for key, value in sorted(report.aggregate.items()):
        print(f"{key}: {value}")
    print(f"wrote report to {args.out}")
    return 0


def cmd_predict(args) -> int:
    params, config, _ = load_params(args.checkpoint)
    if _is_cache_file(args.input):
        samples = graphs.iter_cache(args.input)
    else:
        samples = (_jsonl_sample(line, args.input, lineno, graphs.PRUNE_CUTOFF, None)
                   for lineno, line in chem.jsonl_lines(args.input))
    items = _scored_items(samples, params, config)
    if not items:
        raise DataError("no samples to score")
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "scores.csv"), ("complex_id", "protein_id", "probability"),
               [(i.complex_id, i.protein_id, repr(i.score)) for i in items])
    counts, edges = np.histogram([i.score for i in items], bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    _write_csv(
        os.path.join(args.out, "score_histogram.csv"),
        ("bin_low", "bin_high", "count"),
        [(repr(float(edges[i])), repr(float(edges[i + 1])), int(counts[i])) for i in range(HISTOGRAM_BINS)],
    )
    _write_echo(os.path.join(args.out, "config.resolved.ini"), args, {})
    print(f"scored {len(items)} complex(es); outputs in {args.out}")
    return 0


def _with_rmsd(sample):
    if sample.rmsd is None:
        raise DataError("pose evaluation requires rmsd annotations on every sample")
    return sample


def cmd_poses(args) -> int:
    if min(args.top) < 1:
        raise _UsageError(f"--top values must be positive, got {','.join(map(str, args.top))}")
    params, config, _ = load_params(args.checkpoint)
    items = _scored_items(map(_with_rmsd, _cache_samples(args.cache)), params, config)
    successes = [metrics.topn_success(items, n) for n in args.top]  # a refusal comes before any output
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for n, success in zip(args.top, successes):
        rows.append((n, repr(100.0 * success)))
        print(f"top-{n}: {100.0 * success:.2f}% of complexes have a <2 A pose")
    _write_csv(os.path.join(args.out, "topn_success.csv"), ("n", "success_pct"), rows)
    _write_echo(os.path.join(args.out, "config.resolved.ini"), args, {})
    return 0


def cmd_synth(args) -> int:
    for name in ("train", "test", "pose_complexes", "poses_per_complex", "seed"):
        if getattr(args, name) < 0:
            raise _UsageError(f"--{name.replace('_', '-')} must be non-negative, got {getattr(args, name)}")
    os.makedirs(args.out, exist_ok=True)
    train_records = synthetic.generate_corpus(args.train, seed=args.seed, id_prefix="train")
    test_records = synthetic.generate_corpus(args.test, seed=args.seed + 1, id_prefix="test")
    chem.write_jsonl(train_records, os.path.join(args.out, "train.jsonl"))
    chem.write_jsonl(test_records, os.path.join(args.out, "test.jsonl"))
    written = ["train.jsonl", "test.jsonl"]
    if args.pose_complexes:
        poses = synthetic.generate_pose_set(
            args.pose_complexes, args.poses_per_complex, seed=args.seed + 2
        )
        chem.write_jsonl(poses, os.path.join(args.out, "poses.jsonl"))
        written.append("poses.jsonl")
    _write_echo(os.path.join(args.out, "config.resolved.ini"), args, {})
    print(f"wrote {', '.join(written)} to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="molgat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("featurize", help="parse structures, prune, and write a graph cache")
    p.add_argument("inputs", nargs="+", help="jsonl files, or LIGAND.sdf:PROTEIN.pdb pairs")
    p.add_argument("--format", choices=("jsonl", "sdf+pdb"), default="jsonl")
    p.add_argument("--out", required=True, help="output cache file")
    p.add_argument("--cutoff", type=float, default=graphs.PRUNE_CUTOFF, help="protein prune distance (A)")
    p.add_argument("--category", choices=chem.CATEGORIES, default="unlabeled",
                   help="category for sdf+pdb inputs")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model from cache pools")
    p.add_argument("--cache", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="INI config file; flags override its values")
    p.add_argument("--screening-only", action="store_true",
                   help="train and validate on the two screening categories only")
    p.add_argument("--val-fraction", type=float, default=0.1)
    for _, parsers in _SETTINGS.values():
        for key, parse in parsers.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=parse, help=_SETTING_HELP.get(key))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a cache and compute screening metrics")
    p.add_argument("--cache", nargs="+", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", type=_metric_list, default=",".join(metrics.METRICS),
                   help=f"comma list among {','.join(metrics.METRICS)}")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write per-complex scores and a histogram")
    p.add_argument("--input", required=True, help="graph cache or canonical jsonl")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("poses", help="top-N pose success from an rmsd-annotated cache")
    p.add_argument("--cache", nargs="+", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top", type=_int_list, default="1,2,3,5,10", help="comma list of N values")
    p.set_defaults(func=cmd_poses)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--test", type=int, default=500)
    p.add_argument("--pose-complexes", dest="pose_complexes", type=int, default=0)
    p.add_argument("--poses-per-complex", dest="poses_per_complex", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    for p in sub.choices.values():  # a usage error prints its subcommand's usage line
        p.set_defaults(parser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call of the process: it
    holds reference cycles, so each parser built and dropped waits for the
    cyclic collector. Parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        args.parser.error(str(exc))
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (MolgatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
