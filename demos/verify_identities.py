"""Walk the identity registry and verify everything over parameter grids.

Run:  python demos/verify_identities.py
"""

from quadident import registry, render_report, verify, verify_all

print("== the registry ==")
for case in registry().values():
    print(f"{case.id:<8} {case.description}")

print()
print("== one identity, dense grid ==")
outcomes = verify("E4", grid_size=9)
for o in outcomes:
    print(f"  alpha={o.params['alpha']:<5g} lhs={o.lhs_value:+.12f} "
          f"rhs={o.rhs_value:+.12f} |diff|={o.abs_error:.1e} "
          f"{'pass' if o.passed else o.reason}")

print()
print("== everything at grid 5 ==")
report = verify_all(grid_size=5)
print(f"summary: {report.summary} over {len(report.outcomes)} evaluations")

print()
print("== the same report, machine readable (truncated) ==")
text = render_report(report, "json")
print(text[:400] + " ...")
print()
print("equivalent CLI:  quadident verify --grid 5 --format json")
