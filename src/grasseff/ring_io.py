"""Export of the full multiplication table of A*(G(k, n)), priced by its classes."""

from __future__ import annotations

from grasseff import chow, jsonio
from grasseff.chow import GrassCtx
from grasseff.errors import InputError
from grasseff.partitions import MEMO_CAP


def _priced_ctx(k: int, n: int) -> GrassCtx:
    """G(k, n), refused when its b = C(n, k) classes have more pairs b(b+1)/2 than
    MEMO_CAP, the product memo the table fills; b is built one factor at a time."""
    ctx, b = GrassCtx(k, n), 1
    for i in range(1, min(k, ctx.w) + 1):
        b = b * (max(k, ctx.w) + i) // i
        if b * (b + 1) // 2 > MEMO_CAP:
            raise InputError("G(%d,%d) has at least %d Schubert classes, more pairs than the "
                             "%d-entry product memo" % (k, n, b, MEMO_CAP))
    return ctx


def ring_table(k: int, n: int) -> dict:
    """Basis per grade and all structure constants sigma_lam * sigma_mu."""
    ctx = _priced_ctx(k, n)
    basis = {str(m): [list(lam.trimmed()) for lam in chow.basis(ctx, m)]
             for m in range(ctx.dim + 1)}
    products = []
    for m1 in range(ctx.dim + 1):
        for m2 in range(m1, ctx.dim + 1 - m1):
            for lam in chow.basis(ctx, m1):
                for mu in chow.basis(ctx, m2):
                    prod = chow.multiply(chow.sigma(ctx, lam.parts), chow.sigma(ctx, mu.parts))
                    products.append({
                        "a": list(lam.trimmed()),
                        "b": list(mu.trimmed()),
                        "terms": [{"lambda": list(nu.trimmed()), "c": c}
                                  for nu, c in prod.terms_sorted()],
                    })
    return {"k": k, "n": n, "basis": basis, "products": products}


def export_ring(k: int, n: int, path: str) -> dict:
    """Write ring_table(k, n) to path, priced and opened first so that a refusal costs no work."""
    _priced_ctx(k, n)
    with open(path, "w") as fh:
        table = ring_table(k, n)
        fh.write(jsonio.canonical_dumps(table))
    return table
