"""Export of the full multiplication table of A*(G(k, n))."""

from __future__ import annotations

from grasseff import chow, jsonio
from grasseff.chow import GrassCtx
from grasseff.errors import InputError


def capped_ctx(k: int, n: int, cap: int) -> GrassCtx:
    """G(k, n), refused when k(n-k) exceeds cap."""
    ctx = GrassCtx(k, n)
    if ctx.dim > cap:
        raise InputError("k(n-k) = %d exceeds the cap %d" % (ctx.dim, cap))
    return ctx


def ring_table(k: int, n: int, cap: int = 16) -> dict:
    """Basis per grade and all structure constants sigma_lam * sigma_mu."""
    ctx = capped_ctx(k, n, cap)
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


def export_ring(k: int, n: int, path: str, cap: int = 16) -> dict:
    """Write ring_table(k, n) to path, opened first so that a bad path costs no work."""
    capped_ctx(k, n, cap)
    with open(path, "w") as fh:
        table = ring_table(k, n, cap)
        fh.write(jsonio.canonical_dumps(table))
    return table

