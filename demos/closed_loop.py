"""Closed-loop run of the delayed mechanical example, checks included.

Builds the merged stabilization + safety candidate W = V + 82 B, closes the
loop with the pointwise min-norm-style feedback, integrates four starts for
20 s, and runs every verifier check on the results.

Worth knowing before reading the output: with the published weight psi = 82
the certificate checks all pass while the states grow without bound.  The
weight is large enough that W is negative definite outside the operating
box, so the decrease inequality can hold along trajectories that escape.
Run threshold_study.py for the comparison against a small weight.
"""

import numpy as np

import rzk
from rzk import history as hist, verify
from rzk.simulate import IntegrationSettings

PSI = 82.0
STARTS = [(-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0)]


def main():
    dyn = rzk.example_system()
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, PSI)
    gains = rzk.RazumikhinGains(2.5, 2.0)
    ctrl = rzk.ControllerSpec(W, gains, 2.0)
    unsafe = verify.example_unsafe_set()

    rep = verify.clbrf_construction_check(
        V, B, rzk.example_sandwich(), rzk.EXAMPLE_BOX, rzk.example_margin,
        psi=PSI, gains=(gains, gains), unsafe=unsafe)
    print(f"construction: {'pass' if rep.passed else 'FAIL'} "
          f"(psi_min = {rep.psi_min:.4f}, psi = {PSI})")
    sep = verify.separation_check(unsafe, W)
    print(f"separation:   {'pass' if sep.passed else 'FAIL'} "
          f"(max shell W = {sep.worst:.4f})")

    settings = IntegrationSettings(h=1e-3, T=20.0)
    windows = [hist.from_constant(np.array(x0), dyn.delta) for x0 in STARTS]
    print(f"\nintegrating {len(STARTS)} starts, T = {settings.T} ...")
    trajs = rzk.batch_integrate(dyn, ctrl, windows, settings)

    print(f"\n{'start':>14} {'safety':>8} {'decrease':>9} {'max margin':>11} "
          f"{'|x(T)|':>10}")
    for x0, tr in zip(STARTS, trajs):
        saf = verify.safety_check(tr, unsafe)
        dec = verify.decrease_check(tr, W, gains)
        print(f"{str(x0):>14} {'pass' if saf.passed else 'FAIL':>8} "
              f"{'pass' if dec.passed else 'FAIL':>9} "
              f"{np.max(tr.margins):>11.4f} "
              f"{np.linalg.norm(tr.xs[-1]):>10.3e}")

    print("\nEvery check is green, yet no trajectory settles: the decrease")
    print("inequality is satisfied along diverging solutions because W is")
    print("not positive definite away from the operating box.")


if __name__ == "__main__":
    main()
