#!/usr/bin/env python3
"""Walk two functions through the compactness dictionary on SU(2).

A heat-kernel-smoothed function has fast spectral decay and a small
translation modulus; a function with its mass pushed to the top shell has
neither.  The script prints the shell-by-shell tail profile and the sampled
modulus of continuity side by side so the equivalence is visible in numbers.
"""
import numpy as np

from pego import (
    FamilySpec,
    FourierCoefficients,
    enumerate_dual,
    equicontinuity_profile,
    forward,
    haar_quadrature,
    lp_oplus_norm,
    plancherel_residual,
    random_band_limited_function,
    shell_subset,
    su2,
)
from pego.fourier import inverse as synthesize

rule = haar_quadrature(su2(), 6)
dual = enumerate_dual(su2(), 6)

# smooth: heat-kernel weights e^{-t l(l+1)} per shell of a random function
t = 0.8
base = forward(random_band_limited_function(rule, 6, seed=7), dual)
smooth_entries, rough_entries = {}, {}
for lab in dual:
    l = lab.shell / 2.0
    smooth_entries[lab] = base[lab] * np.exp(-t * l * (l + 1.0))
    rough_entries[lab] = base[lab] * (1.0 if lab.shell >= 5 else 0.05)
sc = FourierCoefficients(base.group, dual, smooth_entries)
rc = FourierCoefficients(base.group, dual, rough_entries)
smooth = synthesize(sc, rule)
rough = synthesize(rc, rule)
smooth.name, rough.name = "smooth", "rough"

print("shell-by-shell tail, ||f - (head up to shell) f||_2:")
print(f"{'shell':>6} {'smooth':>12} {'rough':>12}")
for shell in range(7):
    head = shell_subset(su2(), shell, cutoff=6)
    ts = plancherel_residual(smooth, sc, head)
    tr = plancherel_residual(rough, rc, head)
    print(f"{shell:>6} {ts:12.6f} {tr:12.6f}")

print()
print("sampled modulus of continuity, omega(delta) = sup ||f(. y) - f||_2:")
mesh = [1.0, 0.5, 0.25, 0.1]
prof_s = equicontinuity_profile(FamilySpec([smooth], "smooth"), mesh=mesh, seed=0)
prof_r = equicontinuity_profile(FamilySpec([rough], "rough"), mesh=mesh, seed=0)
print(f"{'delta':>6} {'smooth':>12} {'rough':>12}")
for d, om_s, om_r in zip(mesh, prof_s.omegas, prof_r.omegas):
    print(f"{d:>6} {om_s:12.6f} {om_r:12.6f}")

print()
ns = lp_oplus_norm(sc, 2).value
nr = lp_oplus_norm(rc, 2).value
print(f"both live in L2 (norms {ns:.4f} and {nr:.4f}), but only the")
print("smooth one decays, and its modulus shrinks with delta at the matching")
print("rate; that two-way dictionary is what the verdict engine samples.")
