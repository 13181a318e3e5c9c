"""Compare the four concentration bounds on ternary samples.

Draws i.i.d. samples from {-1, 0, 1}, computes the kl, Empirical
Bernstein, Unexpected Bernstein and split-kl upper bounds on the mean, and
then reproduces the bound-gap sweep curves: symmetric ternary
(p_minus1 = p_1), where the kl bound wins at p0 = 0 and split-kl wins as
p0 grows, and the skewed family where split-kl dominates the middle of the
range.
"""

import numpy as np

from splitkl import (
    EmpiricalSummary,
    TernarySpec,
    empirical_bernstein_bound,
    kl_upper_bound,
    sample_ternary,
    split_decompose,
    split_kl_bound,
    sweep_ternary,
    unexpected_bernstein_grid_bound,
)

N, DELTA, SEED = 100, 0.05, 1


def single_sample_demo():
    spec = TernarySpec(0.2, 0.5, 0.3)
    z = sample_ternary(spec, N, SEED)
    print(f"ternary sample: n={N}, true mean={spec.mean:+.3f}, "
          f"empirical mean={z.mean():+.3f}")

    s = EmpiricalSummary.from_samples(z, lo=-1.0, hi=1.0)
    sp = split_decompose(z, mu=0.0, lo=-1.0, hi=1.0)
    ub = unexpected_bernstein_grid_bound(s, DELTA)
    print(f"  kl bound        : {kl_upper_bound(z.mean(), N, DELTA, -1, 1):+.4f}")
    print(f"  Emp. Bernstein  : {empirical_bernstein_bound(s, DELTA):+.4f}")
    print(f"  Unexp. Bernstein: {ub.value:+.4f}  (gamma={ub.params['gamma']}, "
          f"grid size {ub.params['grid_size']})")
    print(f"  split-kl        : {split_kl_bound(sp, DELTA):+.4f}")
    print()


def sweep_demo(mode):
    rows = sweep_ternary(mode, N, DELTA, repeats=50, seed=SEED)
    print(f"{mode} sweep (median gap = bound - empirical mean, clipped to 1):")
    print("  p0     kl      eb      ub      skl    tightest")
    for row in rows[::10]:
        med = {name: float(np.median(row.gaps[name])) for name in ("kl", "eb", "ub", "skl")}
        best = min(med, key=med.get)
        print(f"  {row.param:.2f} " + " ".join(f"{med[n]:7.4f}" for n in med)
              + f"  {best}")
    print()


if __name__ == "__main__":
    single_sample_demo()
    sweep_demo("symmetric")
    sweep_demo("skew_high")
