"""The oracle_caps workload: urnlab's exact enumerators at or near their caps.

No simulation runs here.  For each shipped config the script enumerates the
outcome distribution at n = 12, checks the one-step conditional-variance
identity and the exact mean identity of every eigen row.  It then runs the
compensated Jordan-track check at n = 9 on a non-degenerate four-colour
Jordan spec (the shipped one has beta = 0, where that check is vacuous),
plus a negative control on the same spec with a perturbed generalized
eigenvector, which must fail.

    python3 perfbench/oracle_caps.py --out DIR --seed N [--n-enum 12] [--n-tree 9]
    python3 perfbench/oracle_caps.py --setup-only

Needs `urnlab` importable (perfbench/run.py puts src/ on PYTHONPATH).
Writes DIR/oracle.json and prints OVERALL PASS or OVERALL FAIL; the exit
code is 0 only on PASS.  The seed picks the control's perturbation factor.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = (
    "configs/two_color.json",
    "configs/three_color_mixture.json",
    "configs/four_color_jordan.json",
)
# Non-degenerate four-colour Jordan example: s = lambda = beta = 1/2.
JORDAN_MATRIX = [
    [0.375, 0.125, 0.4, 0.1],
    [0.125, 0.375, 0.3, 0.2],
    [0.0, 0.0, 0.75, 0.25],
    [0.0, 0.0, 0.25, 0.75],
]
JORDAN_INITIAL = [0.25, 0.25, 0.25, 0.25]
TOL = 1e-9
# The control only has to show that the check has teeth; a short tree does.
CONTROL_STEPS = 6


def build_specs():
    """(name, spec, klass) for the three shipped configs and the Jordan spec."""
    from urnlab import core, spectral

    specs = []
    for rel in CONFIGS:
        cfg = json.loads((ROOT / rel).read_text())
        spec = core.new_spec(cfg["replacement_matrix"], cfg["initial_composition"])
        specs.append((rel, spec, spectral.classify(spec)))
    spec = core.new_spec(JORDAN_MATRIX, JORDAN_INITIAL)
    specs.append(("jordan_beta_half", spec, spectral.classify(spec)))
    return specs


def control_factor(seed: int) -> float:
    """Scale applied to the generalized eigenvector in the negative control."""
    return 1.0 + random.Random(seed).uniform(0.005, 0.02)


def _scaled_generalized(klass, factor: float):
    """Jordan basis with its generalized-eigenvector column scaled."""
    j = klass.jordan_form
    top = [i for i in range(j.shape[0] - 1) if j[i, i + 1] == 1.0]
    if len(top) != 1:
        raise ValueError("Jordan form does not contain exactly one 2-block")
    basis = klass.jordan_basis_matrix.copy()
    basis[:, top[0] + 1] *= factor
    return basis


def run(seed: int, n_enum: int, n_tree: int, basis_scale: float) -> dict:
    from urnlab import laws, oracle

    specs = build_specs()
    configs = []
    for name, spec, klass in specs[:-1]:
        atoms = oracle.exact_distribution(spec, n_enum)
        atoms_hash = hashlib.sha256(
            repr([(a.counts, a.probability) for a in atoms]).encode()
        ).hexdigest()
        means = []
        for row in laws.predict(klass):
            a = row.martingale_eigenvalue
            if a is None:
                continue
            exact = oracle.exact_mean_linear(spec, row.vector, a, n_enum)
            gap = abs(exact - laws.pi_n(a, n_enum) * row.initial_value)
            means.append({"label": row.label, "residual": gap})
        configs.append(
            {
                "config": name,
                "atoms": len(atoms),
                "atoms_sha256": atoms_hash,
                "conditional_variance": oracle.exact_conditional_variance_check(
                    spec, klass, n_enum
                ),
                "mean_linear": means,
            }
        )
    name, spec, klass = specs[-1]
    basis = None if basis_scale == 1.0 else _scaled_generalized(klass, basis_scale)
    factor = control_factor(seed)
    n_control = min(CONTROL_STEPS, n_tree)
    jordan = {
        "spec": name,
        "family": klass.family.value,
        "n": n_tree,
        "basis_scale": basis_scale,
        "residual": oracle.compensated_martingale_check(
            spec, klass, n_tree, basis_matrix=basis
        ),
        "control_n": n_control,
        "control_factor": factor,
        "control_residual": oracle.compensated_martingale_check(
            spec, klass, n_control, basis_matrix=_scaled_generalized(klass, factor)
        ),
    }
    return {"n_enum": n_enum, "tol": TOL, "configs": configs, "jordan": jordan}


def failures(result: dict) -> list[str]:
    """Why a result fails: residuals above TOL, or a control that passes."""
    bad = []
    for cfg in result["configs"]:
        if not cfg["conditional_variance"] <= TOL:
            bad.append(f"{cfg['config']} conditional-variance {cfg['conditional_variance']!r}")
        for row in cfg["mean_linear"]:
            if not row["residual"] <= TOL:
                bad.append(f"{cfg['config']} mean-identity {row['label']} {row['residual']!r}")
    jordan = result["jordan"]
    if not jordan["residual"] <= TOL:
        bad.append(f"compensated-martingale {jordan['residual']!r}")
    if not jordan["control_residual"] > TOL:
        bad.append(f"negative control passed {jordan['control_residual']!r}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-enum", type=int, default=12)
    parser.add_argument("--n-tree", type=int, default=9)
    parser.add_argument(
        "--basis-scale", type=float, default=1.0,
        help="scale the generalized eigenvector of the main check (self-test)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import, build and classify the specs, then exit",
    )
    args = parser.parse_args(argv)
    if args.setup_only:
        specs = build_specs()
        print(f"setup ok: {len(specs)} specs classified")
        return 0
    if args.out is None:
        parser.error("--out is required")
    result = run(args.seed, args.n_enum, args.n_tree, args.basis_scale)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "oracle.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    bad = failures(result)
    for line in bad:
        print(f"FAIL {line}")
    print(f"OVERALL {'FAIL' if bad else 'PASS'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
