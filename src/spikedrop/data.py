"""Dataset handling: ``read_table`` and ``write_table`` (the one reader and the one
writer of every CSV table), ``load_csv``, a synthetic generator and splitting.

The synthetic generator stands in for a large combination-therapy benchmark
at desk scale: input = [cell | drug_a | drug_b] with a target that is
symmetric in the two drugs, so a shared drug tower is the right inductive
bias. The target composition is fixed and documented (see synth_combo) so its
variance has a closed form that tests can check against.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np


class DataFormatError(ValueError):
    """Malformed input file (ragged row, non-numeric or non-finite cell, missing,
    duplicate or unnamed column)."""


@dataclass
class Dataset:
    features: np.ndarray          # (n, d)
    targets: np.ndarray           # (n,)
    feature_names: list

    def __len__(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]


def load_csv(path, target_column: str) -> Dataset:
    """Parse a comma-separated file with a header row into a Dataset.

    Column order is preserved; the target column is extracted. The first
    malformed cell in file order (non-numeric, or NaN or infinite) is
    reported with its data row number and column name.
    """
    reader = read_table(path)
    header = [h.strip() for h in next(reader)[1]]
    for i, name in enumerate(header):
        if not name:
            raise DataFormatError(f"{path}: column {i + 1} has an empty name")
        if name in header[:i]:
            raise DataFormatError(f"{path}: duplicate column {name!r}")
    if target_column not in header:
        raise DataFormatError(f"{path}: target column {target_column!r} not found")
    t_idx = header.index(target_column)

    rows = []
    for row_num, row in reader:
        values = []
        for col, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(f"{path}: row {row_num}, column {col!r}: "
                                      f"non-numeric value {cell.strip()!r}") from None
            if not math.isfinite(value):
                raise DataFormatError(f"{path}: row {row_num}, column {col!r}: "
                                      f"non-finite value {value!r}")
            values.append(value)
        rows.append(values)

    table = np.array(rows, dtype=float)
    names = [h for i, h in enumerate(header) if i != t_idx]
    return Dataset(features=np.delete(table, t_idx, axis=1),
                   targets=table[:, t_idx].copy(), feature_names=names)


def save_csv(path, dataset: Dataset, target_column: str = "target") -> None:
    """Write a Dataset back to CSV; floats keep full round-trip precision."""
    write_table(path, list(dataset.feature_names) + [target_column],
                np.column_stack([dataset.features, dataset.targets]).astype(float).tolist())


def write_table(path, header, rows, meta=None) -> None:
    """Write '# key=value' lines from ``meta``, then ``header`` and ``rows``
    as comma-separated lines, each ended by "\\n". A float cell is written as
    its repr, which reads back exactly: pass Python floats, not numpy scalars.
    Meta that ``read_table`` could not give back is refused before any write."""
    for key, val in (meta or {}).items():
        key_text, val_text = str(key), str(val)
        if ("=" in key_text or {"\n", "\r"} & set(key_text + val_text)
                or key_text != key_text.strip() or val_text != val_text.strip()):
            raise ValueError(f"meta key {key!r}: '=' in a key, a line break or leading or "
                             f"trailing whitespace cannot be read back")
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key, val in (meta or {}).items():
            f.write(f"# {key}={val}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path):
    """Read a ``write_table`` file line by line: yield ``(meta, header)``, ``meta``
    from the leading '# key=value' lines split at the first '=' and stripped,
    then ``(number, cells)`` per non-blank row, from 1 with blank lines counted.
    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    No header, no rows, a row not as wide as the header or a cell that is not
    well-formed CSV (such as an unterminated quote) is a DataFormatError."""
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        meta = {}
        for line in f:
            if line.strip() and not line.startswith("#"):
                break
            key, sep, val = line.lstrip("#").partition("=")
            if sep:
                meta[key.strip()] = val.strip()
        else:
            raise DataFormatError(f"{path}: empty file")
        reader = csv.reader(itertools.chain([line], f), strict=True)
        number = None  # while the header is read
        try:
            header = next(reader)
            yield meta, header
            number = rows = 0
            for number, cells in enumerate(reader, start=1):
                if cells:
                    if len(cells) != len(header):
                        raise DataFormatError(f"{path}: row {number}: expected {len(header)} "
                                              f"fields, got {len(cells)}")
                    rows += 1
                    yield number, cells
        except csv.Error as exc:
            where = "header" if number is None else f"row {number + 1}"
            raise DataFormatError(f"{path}: {where}: {exc}") from None
        if not rows:
            raise DataFormatError(f"{path}: no data rows")


def synth_combo(n: int, cell_dim: int = 8, drug_dim: int = 8,
                noise_std: float = 0.1, seed: int = 0) -> Dataset:
    """Synthetic two-drug dataset with a drug-symmetric target.

    Features are iid standard normal. With s = sum(slice)/sqrt(dim) (a
    standard normal summary of each slice), the target is

        y = g(s_cell) + h(s_a) + h(s_b) + 0.3 * s_a * s_b + noise
        g(s) = 0.8*s + 0.3*(s^2 - 1)
        h(s) = 0.6*s + 0.4*sin(s)

    so Var(y) = 0.82 + 2*(0.36 + 0.48*exp(-1/2) + 0.08*(1 - exp(-2)))
                + 0.09 + noise_std^2.
    """
    if n < 1 or cell_dim < 1 or drug_dim < 1:
        raise ValueError("n, cell_dim, drug_dim must be >= 1")
    rng = np.random.default_rng(seed)
    total = cell_dim + 2 * drug_dim
    x = rng.standard_normal((n, total))

    s_cell = x[:, :cell_dim].sum(axis=1) / np.sqrt(cell_dim)
    s_a = x[:, cell_dim: cell_dim + drug_dim].sum(axis=1) / np.sqrt(drug_dim)
    s_b = x[:, cell_dim + drug_dim:].sum(axis=1) / np.sqrt(drug_dim)

    def h(s):
        return 0.6 * s + 0.4 * np.sin(s)

    y = (0.8 * s_cell + 0.3 * (s_cell ** 2 - 1.0)
         + h(s_a) + h(s_b) + 0.3 * s_a * s_b
         + noise_std * rng.standard_normal(n))

    names = ([f"cell_{i}" for i in range(cell_dim)]
             + [f"drug_a_{i}" for i in range(drug_dim)]
             + [f"drug_b_{i}" for i in range(drug_dim)])
    return Dataset(features=x, targets=y, feature_names=names)


def train_test_split(dataset: Dataset, test_fraction: float = 0.25, seed: int = 0):
    """Seeded shuffle split; every row lands in exactly one part."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie in (0, 1)")
    n = len(dataset)
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]

    def take(idx):
        return Dataset(features=dataset.features[idx],
                       targets=dataset.targets[idx],
                       feature_names=list(dataset.feature_names))

    return take(train_idx), take(test_idx)
