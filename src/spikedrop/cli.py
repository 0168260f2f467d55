"""Command-line driver for the train / convert / infer / compare pipeline.

Figure-style outputs are emitted as data files (CSV/JSON), never rendered
images. Every command is deterministic given its flags and input files.
Exit codes: 0 success, 1 runtime failure, 2 usage error.

A flag that sets a field of a config (``snn.SimConfig``,
``neuron.NeuronParams`` or ``training.TrainConfig``) takes that field's type
and default, and its only range rule is the config's own: ``main`` builds
the subcommand's config once, before any work, and a refusal becomes the
subcommand's usage error with each field named as its flag. The other
flags' rules are argparse types here.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import data as data_mod
from . import mcinfer, network, snn, stats, training
from .neuron import NeuronParams


def _checked(kind, ok, rule):
    """An argparse type: ``kind(text)``, refused unless ``ok(value)``, so an
    out-of-range value is a usage error (exit 2) that names its flag."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_NONNEGATIVE_FLOAT = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_KEEP_PROB = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


# each config-backed flag's dest (a simulation flag's is also its meta key) and the field it sets
_SIM_FIELDS = {"dt": "dt", "steps": "n_steps", "burnin": "burn_in_steps", "tausyn": "tau_syn",
               "v0_seed": "v0_seed"}
_NEURON_FIELDS = {"tau_ref": "tau_ref", "tau_rc": "tau_rc", "v_th": "v_th", "gamma": "gamma"}
_TRAIN_FIELDS = {"epochs": "epochs", "batch": "batch_size", "lr": "learning_rate", "seed": "seed"}
_SIM_HELP = {"dt": "tick length in seconds", "steps": "number of ticks",
             "burnin": "ticks discarded before averaging the output potential",
             "tausyn": "synaptic lowpass time constant in seconds",
             "v0_seed": "seed for heterogeneous initial voltages (0 = all-zero start)"}


def _add_config_flags(parser, config, fields, **helps):
    """Add a flag for each ``fields`` entry (dest -> field of the dataclass
    ``config``), typed and defaulted as that field. The config's own checks
    are the flags' only rule; main builds it with ``_config_from_args``."""
    for dest, name in fields.items():
        field = config.__dataclass_fields__[name]
        parser.add_argument("--" + dest.replace("_", "-"), default=field.default,
                            type=int if field.type in ("int", int) else float, help=helps.get(dest))
    parser.set_defaults(config_fields=(config, fields), parser=parser)


def _config_from_args(args):
    """The subcommand's config, built from its flags. A refusal is the
    subcommand's usage error (exit 2), with each field named as its flag."""
    config, fields = args.config_fields
    try:
        return config(**{field: getattr(args, dest) for dest, field in fields.items()})
    except ValueError as exc:
        flags = {field: "--" + dest.replace("_", "-") for dest, field in fields.items()}
        args.parser.error(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))


def _sim_meta(sim: snn.SimConfig) -> dict:
    return {dest: getattr(sim, field) for dest, field in _SIM_FIELDS.items()}


def cmd_synth(args) -> int:
    ds = data_mod.synth_combo(n=args.n, cell_dim=args.cell_dim,
                              drug_dim=args.drug_dim,
                              noise_std=args.noise_std, seed=args.seed)
    data_mod.save_csv(args.out, ds, target_column="target")
    print(f"wrote {len(ds)} rows to {args.out}")
    return 0


def cmd_init_spec(args) -> int:
    spec = network.combo_spec(cell_dim=args.cell_dim, drug_dim=args.drug_dim,
                              cell_hidden=args.cell_hidden,
                              drug_hidden=args.drug_hidden,
                              head_hidden=args.head_hidden,
                              keep_prob=args.keep_prob)
    network.save_config(args.out, spec, args.config)
    print(f"wrote network config to {args.out}")
    return 0


def cmd_train(args) -> int:
    spec, params = network.load_config(args.spec)
    dataset = _load_data(args, spec, f"network config {args.spec}")
    train_ds, test_ds = data_mod.train_test_split(dataset, args.test_fraction,
                                                  seed=args.seed)
    if not len(train_ds) or not len(test_ds):
        empty = "training" if not len(train_ds) else "test"
        raise ValueError(f"{args.data} has {len(dataset)} rows: --test-fraction "
                         f"{args.test_fraction} leaves the {empty} part empty")
    weights, history = training.train(spec, train_ds, args.config, params,
                                      eval_dataset=test_ds)
    network.save_model(args.out, spec, weights, params)
    history_path = args.history or args.out + ".history.csv"
    training.write_history(history_path, history)
    print(f"final train mse {history[-1][1]:.6g}, test mse {history[-1][2]:.6g}")
    print(f"wrote model to {args.out}, history to {history_path}")
    return 0


def _load_data(args, spec, source):
    """The data file of a command, checked before any work starts to fit the
    ``spec`` read from ``source`` (``model X`` or ``network config X``)."""
    if spec.output_dim != 1:
        raise ValueError(f"{source} has output_dim {spec.output_dim}; spikedrop needs output_dim 1")
    dataset = data_mod.load_csv(args.data, target_column=args.target)
    if dataset.n_features != spec.input_dim:
        raise ValueError(f"{args.data} has {dataset.n_features} features, "
                         f"{source} wants {spec.input_dim}")
    return dataset


def cmd_infer(args) -> int:
    model = network.load_model(args.model)
    dataset = _load_data(args, model.spec, f"model {args.model}")
    n_obs = len(dataset)
    sample_sets = mcinfer.predictive_distributions(model, dataset.features, args.draws,
                                                   args.seed, args.backend, args.config)

    meta = {
        "backend": args.backend,
        "seed": args.seed,
        "draws": args.draws,
        "observations": n_obs,
        "seed_rule": "observation row uses base_seed = seed + row * draws; "
                     "draw k uses mask seed base_seed + k",
    }
    if args.backend == "spiking":
        meta.update(_sim_meta(args.config))
    mcinfer.write_samples(args.out, sample_sets, meta)
    print(f"wrote {n_obs * args.draws} draws to {args.out}")
    return 0


def cmd_trace(args) -> int:
    model = network.load_model(args.model)
    dataset = _load_data(args, model.spec, f"model {args.model}")
    if args.row >= len(dataset):
        raise ValueError(f"{args.data}: row {args.row} out of range [0, {len(dataset)})")
    observation = dataset.features[args.row]

    masks = None if args.mask_seed is None else network.sample_masks(model.spec, args.mask_seed)
    analog_out, _ = network.forward(model.spec, model.weights, observation,
                                    masks, model.neuron_params)
    sim = args.config
    trace = snn.simulate(model, observation, masks, sim)
    meta = {
        "row": args.row,
        "mask_seed": "none" if args.mask_seed is None else args.mask_seed,
        "dnn_output": repr(float(analog_out[0])),
        "post_burn_in_mean": repr(float(snn.summarize_trace(trace, sim.burn_in_steps))),
        **_sim_meta(sim),
    }
    snn.write_trace(args.out, trace, sim.dt, meta)
    print(f"wrote {len(trace)} ticks to {args.out}")
    return 0


def cmd_compare(args) -> int:
    meta_a, groups_a = mcinfer.read_samples(args.a)
    meta_b, groups_b = mcinfer.read_samples(args.b)
    if set(groups_a) != set(groups_b):
        only_a = sorted(set(groups_a) - set(groups_b))
        only_b = sorted(set(groups_b) - set(groups_a))
        raise ValueError(
            f"observation ids differ between files (only in a: {only_a}, only in b: {only_b})"
        )

    per_obs = []
    pvalues = []
    for obs_id in sorted(groups_a):
        draws_a, draws_b = groups_a[obs_id][1], groups_b[obs_id][1]
        result = stats.ks_two_sample(draws_a, draws_b)
        pvalues.append(result.p_value)
        lo = min(draws_a.min(), draws_b.min())
        hi = max(draws_a.max(), draws_b.max())
        if lo == hi:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, 21)
        per_obs.append({
            "observation_id": obs_id,
            "d": result.statistic_d,
            "p_value": result.p_value,
            "n": result.n,
            "m": result.m,
            "histogram": {
                "bin_edges": edges.tolist(),
                "counts_a": np.histogram(draws_a, bins=edges)[0].tolist(),
                "counts_b": np.histogram(draws_b, bins=edges)[0].tolist(),
            },
        })

    uniformity = stats.pvalue_uniformity(pvalues)
    report = {
        "inputs": {"a": meta_a, "b": meta_b},
        "per_observation": per_obs,
        "uniformity": {
            "fraction_below_0.05": uniformity.fraction_below_005,
            "ks_vs_uniform_d": uniformity.ks_vs_uniform_d,
            "ks_vs_uniform_p": uniformity.ks_vs_uniform_p,
            "histogram_counts": uniformity.histogram.tolist(),
        },
    }
    network.write_json(args.out, report)
    n_small = sum(1 for p in pvalues if p < 0.05)
    print(f"{len(pvalues)} observations compared; {n_small} with p < 0.05; "
          f"uniformity p = {uniformity.ks_vs_uniform_p:.4g}")
    print(f"wrote report to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedrop",
        description="Train a SoftLIF dropout regressor, transfer it to a spiking "
                    "network, and compare Monte-Carlo predictive distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-drug dataset CSV")
    p.add_argument("--n", type=_POSITIVE_INT, default=2000)
    p.add_argument("--cell-dim", type=_POSITIVE_INT, default=8)
    p.add_argument("--drug-dim", type=_POSITIVE_INT, default=8)
    p.add_argument("--noise-std", type=_NONNEGATIVE_FLOAT, default=0.1)
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init-spec", help="write a two-drug network config JSON")
    p.add_argument("--cell-dim", type=_POSITIVE_INT, default=8)
    p.add_argument("--drug-dim", type=_POSITIVE_INT, default=8)
    p.add_argument("--cell-hidden", type=_POSITIVE_INT, default=16)
    p.add_argument("--drug-hidden", type=_POSITIVE_INT, default=16)
    p.add_argument("--head-hidden", type=_NONNEGATIVE_INT, default=32,
                   help="hidden head width; 0 = affine readout directly on the towers")
    p.add_argument("--keep-prob", type=_KEEP_PROB, default=0.9)
    _add_config_flags(p, NeuronParams, _NEURON_FIELDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_spec)

    p = sub.add_parser("train", help="train an analog model on a CSV dataset")
    p.add_argument("--spec", required=True, help="network config JSON")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--target", default="target")
    _add_config_flags(p, training.TrainConfig, _TRAIN_FIELDS)
    p.add_argument("--test-fraction", type=_FRACTION, default=0.2)
    p.add_argument("--history", default=None,
                   help="loss history CSV (default: <out>.history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="Monte-Carlo dropout inference over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="target")
    p.add_argument("--backend", choices=mcinfer.BACKENDS, default="analog")
    p.add_argument("--draws", type=_POSITIVE_INT, default=100)
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p, snn.SimConfig, _SIM_FIELDS, **_SIM_HELP)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("trace", help="dump one spiking simulation's output potential")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="target")
    p.add_argument("--row", type=_NONNEGATIVE_INT, required=True)
    p.add_argument("--mask-seed", type=_NONNEGATIVE_INT, default=None,
                   help="dropout mask seed (omit for a mask-free run)")
    p.add_argument("--out", required=True)
    _add_config_flags(p, snn.SimConfig, _SIM_FIELDS, **_SIM_HELP)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="KS-compare two samples files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "config_fields" in vars(args):
        args.config = _config_from_args(args)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> exit 1 with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
