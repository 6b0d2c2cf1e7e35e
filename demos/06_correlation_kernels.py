"""Correlations as Pfaffians of double-contour kernels.

Three independent routes to the same number: brute-force enumeration, the
Pfaffian of the assembled kernel matrix, and the q-power coefficient of the
iterated Macdonald action on the stated contours, read exactly from the
Taylor series of its residue sum at q = 0. The kernel route also adjudicates
the (zw-1) versus (1-zw) sign of the inner-inner block.
"""

from pfschur import (KernelConfig, ProcessSpec, assemble_kernel,
                     correlation_oracle, correlation_via_kernel,
                     correlation_via_q_extraction, default_radii)
from pfschur.kernels import SIGN_BR

X = (0.5, 0.25)
spec = ProcessSpec([X], [X])
cfg = KernelConfig()

print(f"default circle radii: { {k: round(v, 4) for k, v in default_radii(spec).items()} }")

print("\nsingle level, |X| = |Y| = 2:")
for T in ([0], [-1], [0, 2]):
    orc = correlation_oracle(spec, [(1, t) for t in T], L=40)
    ker = correlation_via_kernel(spec, [(1, t) for t in T], cfg)
    print(f"  T={T!s:8s} oracle {orc:.10f}  Pf(K) {ker:.10f}  gap {abs(orc-ker):.1e}")

qe, qinfo = correlation_via_q_extraction(X, X, [0], cfg, full_output=True)
print(f"  T=[0] via q-coefficient extraction: {qe:.10f}  (the q^{qinfo['orders'][0]} "
      f"coefficient, {qinfo['terms']} terms, cancellation {qinfo['cancellation']:.2f})")

K, info = assemble_kernel(spec, [(1, 0), (1, 2)], cfg, full_output=True)
print(f"\nassembled 4x4 kernel: {info['node_evaluations']} circle nodes evaluated "
      f"for its {len(info['nodes'])} integrated entries")
print(f"largest last-doubling delta (the quadrature error estimate): "
      f"{info['max_last_delta']:.1e}")
print(f"node counts per entry: {sorted(set(map(str, info['nodes'].values())))}")

# two levels: the cross-level inner-inner entry feels the K22 sign
spec2 = ProcessSpec([[0.4], [0.3]], [[0.35], [0.25]])
T = [(1, 0), (2, 0)]
orc = correlation_oracle(spec2, T, L=20)
paper = correlation_via_kernel(spec2, T, cfg)
flipped = correlation_via_kernel(spec2, T, KernelConfig(sign_convention=SIGN_BR))
print(f"\nm=2, T={T}:")
print(f"  oracle                 : {orc:.8f}")
print(f"  kernel, (zw-1) in K22  : {paper:.8f}   gap {abs(paper-orc):.1e}")
print(f"  kernel, (1-zw) in K22  : {flipped:.8f}   gap {abs(flipped-orc):.1e}"
      "   <- the sign flip the oracle rejects")
