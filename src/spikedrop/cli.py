"""Command-line driver for the train / convert / infer / compare pipeline.

Figure-style outputs are emitted as data files (CSV/JSON), never rendered
images. Every command is deterministic given its flags and input files.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import data as data_mod
from . import mcinfer, network, snn, stats, training
from .convert import convert
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
_POSITIVE_FLOAT = _checked(float, lambda v: v > 0, "> 0")
_NONNEGATIVE_FLOAT = _checked(float, lambda v: v >= 0, ">= 0")
_KEEP_PROB = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _neuron_params_from_dict(d) -> NeuronParams:
    """Neuron constants from a config file; an omitted field keeps its default."""
    d = d or {}
    unknown = set(d) - {f.name for f in fields(NeuronParams)}
    if unknown:
        raise ValueError(f"unknown neuron_params field {min(unknown)!r}")
    return NeuronParams(**{key: float(value) for key, value in d.items()})


def _load_network_config(path):
    with open(path, "r", encoding="utf-8") as f, network._naming_file(path):
        doc = json.load(f)
        spec = network.spec_from_dict(doc["spec"])
        network.validate(spec)
        return spec, _neuron_params_from_dict(doc.get("neuron_params"))


def _sim_from_args(args) -> snn.SimConfig:
    return snn.SimConfig(dt=args.dt, n_steps=args.steps,
                         burn_in_steps=args.burnin, tau_syn=args.tausyn,
                         v0_seed=args.v0_seed)


def _add_sim_flags(parser):
    parser.add_argument("--dt", type=_POSITIVE_FLOAT, default=0.001, help="tick length in seconds")
    parser.add_argument("--steps", type=_POSITIVE_INT, default=1000, help="number of ticks")
    parser.add_argument("--burnin", type=_NONNEGATIVE_INT, default=200,
                        help="ticks discarded before averaging the output potential")
    parser.add_argument("--tausyn", type=_NONNEGATIVE_FLOAT, default=0.005,
                        help="synaptic lowpass time constant in seconds")
    parser.add_argument("--v0-seed", type=_NONNEGATIVE_INT, default=1,
                        help="seed for heterogeneous initial voltages (0 = all-zero start)")


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
    params = NeuronParams(tau_ref=args.tau_ref, tau_rc=args.tau_rc,
                          v_th=args.v_th, gamma=args.gamma)
    doc = {
        "spec": network.spec_to_dict(spec),
        "neuron_params": asdict(params),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote network config to {args.out}")
    return 0


def cmd_train(args) -> int:
    spec, params = _load_network_config(args.spec)
    dataset = data_mod.load_csv(args.data, target_column=args.target)
    if dataset.n_features != spec.input_dim:
        raise ValueError(f"{args.data} has {dataset.n_features} features, "
                         f"network config {args.spec} wants {spec.input_dim}")
    train_ds, test_ds = data_mod.train_test_split(dataset, args.test_fraction,
                                                  seed=args.seed)
    if not len(train_ds) or not len(test_ds):
        empty = "training" if not len(train_ds) else "test"
        raise ValueError(f"{args.data} has {len(dataset)} rows: --test-fraction "
                         f"{args.test_fraction} leaves the {empty} part empty")
    cfg = training.TrainConfig(epochs=args.epochs, batch_size=args.batch,
                               learning_rate=args.lr, seed=args.seed)
    weights, history = training.train(spec, train_ds, cfg, params,
                                      eval_dataset=test_ds)
    network.save_model(args.out, spec, weights, params, kind="analog")
    history_path = args.history or args.out + ".history.csv"
    training.write_history(history_path, history)
    print(f"final train mse {history[-1][1]:.6g}, test mse {history[-1][2]:.6g}")
    print(f"wrote model to {args.out}, history to {history_path}")
    return 0


def _load_model_and_data(args):
    """The model and dataset files of ``infer`` and ``trace``, checked to agree
    in width before any work starts."""
    model = network.load_model(args.model)
    dataset = data_mod.load_csv(args.data, target_column=args.target)
    if dataset.n_features != model.spec.input_dim:
        raise ValueError(f"{args.data} has {dataset.n_features} features, "
                         f"model {args.model} wants {model.spec.input_dim}")
    return model, dataset


def cmd_infer(args) -> int:
    model, dataset = _load_model_and_data(args)
    sim = _sim_from_args(args)
    n_obs = len(dataset)
    sample_sets = [
        mcinfer.predictive_distribution(
            model.spec, model.weights, model.neuron_params,
            dataset.features[row], n_draws=args.draws,
            base_seed=args.seed + row * args.draws,
            backend=args.backend, sim=sim, observation_id=row,
        )
        for row in range(n_obs)
    ]

    meta = {
        "backend": args.backend,
        "seed": args.seed,
        "draws": args.draws,
        "observations": n_obs,
        "seed_rule": "observation row uses base_seed = seed + row * draws; "
                     "draw k uses mask seed base_seed + k",
    }
    if args.backend == "spiking":
        meta.update({"dt": sim.dt, "steps": sim.n_steps, "burnin": sim.burn_in_steps,
                     "tausyn": sim.tau_syn, "v0_seed": sim.v0_seed})
    mcinfer.write_samples(args.out, sample_sets, meta)
    print(f"wrote {n_obs * args.draws} draws to {args.out}")
    return 0


def cmd_trace(args) -> int:
    model, dataset = _load_model_and_data(args)
    if args.row >= len(dataset):
        raise ValueError(f"{args.data}: row {args.row} out of range [0, {len(dataset)})")
    observation = dataset.features[args.row]
    sim = _sim_from_args(args)

    masks = None if args.mask_seed is None else network.sample_masks(model.spec, args.mask_seed)
    analog_out, _ = network.forward(model.spec, model.weights, observation,
                                    masks, model.neuron_params)
    net = convert(model.spec, model.weights, model.neuron_params)
    trace = snn.simulate(net, observation, masks, sim)
    meta = {
        "row": args.row,
        "mask_seed": "none" if args.mask_seed is None else args.mask_seed,
        "dnn_output": repr(float(analog_out[0])),
        "post_burn_in_mean": repr(float(snn.summarize_trace(trace, sim.burn_in_steps))),
        "dt": sim.dt,
        "burnin": sim.burn_in_steps,
    }
    snn.write_trace(args.out, trace, meta)
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
        backend_a, draws_a = groups_a[obs_id]
        backend_b, draws_b = groups_b[obs_id]
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
                f"counts_{backend_a}": np.histogram(draws_a, bins=edges)[0].tolist(),
                f"counts_{backend_b}": np.histogram(draws_b, bins=edges)[0].tolist(),
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
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
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
    p.add_argument("--tau-ref", type=_NONNEGATIVE_FLOAT, default=0.002)
    p.add_argument("--tau-rc", type=_POSITIVE_FLOAT, default=0.02)
    p.add_argument("--v-th", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--gamma", type=_POSITIVE_FLOAT, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_spec)

    p = sub.add_parser("train", help="train an analog model on a CSV dataset")
    p.add_argument("--spec", required=True, help="network config JSON")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--target", default="target")
    p.add_argument("--epochs", type=_POSITIVE_INT, default=150)
    p.add_argument("--batch", type=_POSITIVE_INT, default=32)
    p.add_argument("--lr", type=_POSITIVE_FLOAT, default=1e-3)
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
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
    _add_sim_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("trace", help="dump one spiking simulation's output potential")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="target")
    p.add_argument("--row", type=_NONNEGATIVE_INT, required=True)
    p.add_argument("--mask-seed", type=_NONNEGATIVE_INT, default=None,
                   help="dropout mask seed (omit for a mask-free run)")
    p.add_argument("--out", required=True)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="KS-compare two samples files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "burnin" in vars(args) and args.burnin >= args.steps:
        parser.error(f"--burnin ({args.burnin}) must be less than --steps ({args.steps})")
    if "tausyn" in vars(args) and 0 < args.tausyn < args.dt:
        parser.error(f"--dt ({args.dt}) must not exceed --tausyn ({args.tausyn}) when --tausyn > 0")
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> exit 1 with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
