"""What the barrier weight psi buys, and what it costs.

The merged candidate is W = V + psi B.  The construction requires
psi > psi_min (about 81.9 here) so that W > 0 on the hazard region, which
is what makes a W-decrease argument forbid entering it.  This script runs
the same four starts with a small weight and with the published weight:

  psi = 10  fails the construction check (psi < psi_min), and one start
            crosses the hazard region, but the other three settle at the
            origin: with the small weight W stays positive definite away
            from the box, so decreasing W actually shrinks the state.

  psi = 82  passes every construction and runtime check, and no start
            crosses the hazard region, but none settles either: outside
            the box, e^{-4} ||x||^2 swamps V/psi and W is negative there,
            so the decrease inequality stops constraining ||x||.

One weight gives convergence without the safety guarantee, the other the
guarantee without convergence.
"""

import numpy as np

import rzk
from rzk import history as hist, verify
from rzk.simulate import IntegrationSettings

STARTS = [(-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0)]
T = 10.0


def run(psi):
    dyn = rzk.example_system()
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, psi)
    gains = rzk.RazumikhinGains(2.5, 2.0)
    ctrl = rzk.ControllerSpec(W, gains, 2.0)
    unsafe = verify.example_unsafe_set()

    rep = verify.clbrf_construction_check(
        V, B, rzk.example_sandwich(), rzk.EXAMPLE_BOX, rzk.example_margin,
        psi=psi, gains=(gains, gains), unsafe=unsafe)
    print(f"\npsi = {psi}: construction "
          f"{'pass' if rep.passed else 'FAIL'} "
          f"(psi_min = {rep.psi_min:.4f})")

    windows = [hist.from_constant(np.array(x0), dyn.delta) for x0 in STARTS]
    trajs = rzk.batch_integrate(dyn, ctrl, windows,
                                IntegrationSettings(h=1e-3, T=T))
    for x0, tr in zip(STARTS, trajs):
        saf = verify.safety_check(tr, unsafe)
        norm = np.linalg.norm(tr.xs[-1])
        verdict = "settles" if norm < 5e-2 else "does not settle"
        print(f"  start {str(x0):>14}: safety "
              f"{'pass' if saf.passed else 'FAIL'},  |x(T)| = {norm:9.3e}"
              f"  ({verdict})")


def main():
    print(f"four starts, T = {T}, gains gamma=2.5 eta=2, lambda=2")
    for psi in (10.0, 82.0):
        run(psi)


if __name__ == "__main__":
    main()
