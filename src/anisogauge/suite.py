"""The verify rows for one certified pair: the paper's claims, checked.

`verify_rows(pair)` returns the rows that `verify` prints, in payload order,
as {"name", "status", "detail"} dicts with status pass, fail or skip, for a
record of `gauging.certify_pair`, the one gate of a pair.  It applies no gate
of its own: the CLI refuses a pair over its bound and a ring over its byte
budget before it gets here.  Every check runs in full while p*q^2 <=
`gauging.COMPLETE_BOUND`; above it the semidirect row skips its class count
and says so.  Each stage is called through its module, so a caller can wrap
or replace it there.  Imports numpy.
"""

from . import ffield, fusionring, gauging, gtcheck, orthogroup, quadspace
from .errors import AnisogaugeError


def verify_rows(pair: gauging.CertifiedPair) -> list[dict]:
    """The verify rows for the certified pair, in payload order.

    Each check returns (ok, detail) for its own row, ok None meaning
    skipped, or a list of (name, ok, detail) rows.  The library certifies
    sizes and orders by raising, so an AnisogaugeError or ArithmeticError
    raised inside a check becomes a fail row carrying the error and the
    other checks still run; any other exception is a bug and propagates.
    Both planes, the ring and the census are built once, up front, and a
    check whose input failed to build fails with that error.
    """
    p, q, field = pair.p, pair.q, pair.ctx

    def built(build):
        """A getter of build(), or one that re-raises the error it raised."""
        try:
            value = build()
        except (AnisogaugeError, ArithmeticError) as err:
            def fail(err=err):  # a default: `err` is unbound after the block
                raise err
            return fail
        return lambda: value

    aniso, hyper = quadspace.build_anisotropic(field), quadspace.build_hyperbolic(field)
    ring = built(lambda: fusionring.build_extension_ring(pair))
    census = built(lambda: fusionring.equivariantization_census(pair))

    def norm_one_subgroup():
        ffield.norm_one_generator(field)  # of order q + 1, so it generates all q + 1 members
        return True, f"size {q + 1}"

    def orthogonal_order(space):
        return True, f"order {len(orthogroup.enumerate_orth(space))}"

    def metric_group():
        quadspace.metric_group_of(aniso)
        return True, "non-degenerate"

    def fusion_axioms():
        report = fusionring.verify_axioms(ring())
        return report.passed, report.counterexample or f"{len(ring().basis)} basis elements"

    def fp_dims():
        dims = fusionring.fp_dims(ring())
        values = sorted(set(dims.values()))
        global_dim = sum(v * v for v in dims.values())
        ok = values == sorted({1, q}) and global_dim == p * q * q
        return ok, f"dims {values}, global {global_dim}"

    def semidirect_cross_check():
        irreps = fusionring.semidirect_irreps(pair)
        degree0 = {(dim, count) for label, dim, count in census().entries[:2]}
        semis = {(dim, count) for label, dim, count in irreps.entries}
        detail = f"irreps rank {irreps.rank}"
        if p * q * q > gauging.COMPLETE_BOUND:
            detail += f"; brute-force class count skipped (p*q^2 > {gauging.COMPLETE_BOUND})"
        return degree0 == semis, detail

    def criterion_suite():
        if q == 2 or p == 2:
            reason = "q=2" if q == 2 else "p=2"
            return None, f"even prime ({reason}); needs odd characteristic"
        suite = gtcheck.non_group_theoretical_suite(pair, aniso)
        return [(f"criterion-{name}", ok, detail) for name, ok, detail in suite]

    def hyperbolic_controls():
        if q == 2:
            return None, "q=2; needs odd characteristic"
        bad = [
            a for a in range(2, q - 1)  # skips 0, 1, and q-1 = -1
            if not gtcheck.gt_criterion(gtcheck.hyperbolic_control(hyper, a)).group_theoretical
        ]
        return not bad, f"{max(0, q - 3)} rotations checked" if not bad else f"failures at {bad}"

    checks = (
        ("norm-one-subgroup", norm_one_subgroup),
        ("anisotropic-orthogonal", lambda: orthogonal_order(aniso)),
        ("hyperbolic-orthogonal", lambda: orthogonal_order(hyper)),
        ("metric-group", metric_group),
        ("fusion-axioms", fusion_axioms),
        ("fp-dims", fp_dims),
        ("census", lambda: (True, f"rank {census().rank}")),
        ("semidirect-cross-check", semidirect_cross_check),
        ("quartic-identity", lambda: (gtcheck.quartic_identity_check(q), "(x+1)^3(x-1) expansion")),
        ("criterion-suite", criterion_suite),
        ("hyperbolic-controls", hyperbolic_controls),
    )
    rows = []
    for name, check in checks:
        try:
            result = check()
        except (AnisogaugeError, ArithmeticError) as err:
            result = False, f"{type(err).__name__}: {err}"
        rows += result if isinstance(result, list) else [(name, *result)]
    return [
        {"name": name, "status": "skip" if ok is None else "pass" if ok else "fail",
         "detail": detail}
        for name, ok, detail in rows
    ]
