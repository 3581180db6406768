"""Jet arithmetic against closed forms and finite differences."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import jet_constant, jet_exp, value
from spinlab import jets
from spinlab.jets import Jet, contract, stack, variables, worst_of

coeffs = st.lists(st.floats(-3, 3, allow_nan=False, allow_infinity=False),
                  min_size=20, max_size=20)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=100, deadline=None)
def test_multiplication_associative_and_distributive(a, b, c):
    ja, jb, jc = Jet(a), Jet(b), Jet(c)
    lhs = ((ja * jb) * jc).c
    rhs = (ja * (jb * jc)).c
    assert np.allclose(lhs, rhs, atol=1e-10)
    assert np.allclose((ja * (jb + jc)).c, (ja * jb + ja * jc).c, atol=1e-10)


@given(coeffs, coeffs, st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_leibniz_rule(a, b, v):
    """The derivation operator against the truncated convolution:
    d(ab) = da b + a db, exactly, on the order-2 jets both sides are."""
    ja, jb = Jet(a), Jet(b)
    lhs = (ja * jb).deriv()[v]
    rhs = ja.deriv()[v] * jb + ja * jb.deriv()[v]
    assert lhs.c.shape == rhs.c.shape == (10,)
    assert np.allclose(lhs.c, rhs.c, atol=1e-9)


@given(coeffs, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_chain_rule_for_sine(a, v):
    ja = Jet(a)
    lhs = ja.sin().deriv()[v]
    rhs = ja.cos() * ja.deriv()[v]
    assert np.allclose(lhs.c, rhs.c, atol=1e-8)


def f_scalar(x, y, z):
    return (x * y).sin() + (1.0 + z * z).sqrt() * jet_exp(0.3 * x) / (2.0 + y)


def f_plain(u):
    x, y, z = u
    return (np.sin(x * y)
            + np.sqrt(1.0 + z * z) * np.exp(0.3 * x) / (2.0 + y))


def test_value_and_gradient_match_fd():
    u = np.array([0.4, -0.3, 0.8])
    jx, jy, jz = variables(u)
    jet = f_scalar(jx, jy, jz)
    assert jet.val == pytest.approx(f_plain(u), abs=1e-15)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (f_plain(u + e) - f_plain(u - e)) / (2 * h)
        assert jet.grad()[a] == pytest.approx(fd, abs=1e-9)


def test_hessian_matches_fd():
    u = np.array([0.2, 0.5, -0.6])
    jet = f_scalar(*variables(u))
    H = jet.deriv().grad()
    h = 1e-4
    for a in range(3):
        for b in range(3):
            ea = np.zeros(3)
            eb = np.zeros(3)
            ea[a] = h
            eb[b] = h
            fd = (f_plain(u + ea + eb) - f_plain(u + ea - eb)
                  - f_plain(u - ea + eb) + f_plain(u - ea - eb)) / (4 * h * h)
            assert H[a, b] == pytest.approx(fd, abs=1e-6)
    assert np.max(np.abs(H - H.T)) == 0.0


def test_third_order_through_deriv():
    # d^3/dx^3 of sin(2x) at x0 = -8 cos(2 x0), probed via deriv chain
    x0 = 0.37
    jx, _, _ = variables([x0, 0.0, 0.0])
    jet = (2.0 * jx).sin()
    d3 = jet.deriv()[0].deriv()[0].deriv()[0]
    assert d3.val == pytest.approx(-8.0 * np.cos(2 * x0), abs=1e-12)
    assert d3.order == 0 and d3.c.shape == (1,)


def test_validity_tracking_blocks_garbage():
    jx, jy, _ = variables([0.1, 0.2, 0.3])
    d = (jx * jy).deriv()[0].deriv()[1]
    assert d.order == 1 and d.c.shape == (4,)
    with pytest.raises(AssertionError):
        d.deriv().grad()


def test_division_and_reciprocal():
    jx, jy, _ = variables([1.3, -0.4, 0.0])
    expr = (jx / (1.0 + jy * jy)) * (1.0 + jy * jy) - jx
    assert np.max(np.abs(expr.c)) < 1e-14
    assert value(2.0 / jx) == pytest.approx(2.0 / 1.3)


def test_zero_division_raises():
    jx, _, _ = variables([0.0, 0.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        1.0 / jx
    with pytest.raises(ValueError):
        (jx - 1.0).sqrt()


def test_constant_and_mixed_arithmetic():
    c = jet_constant(4.0)
    jx, _, _ = variables([1.0, 0.0, 0.0])
    assert value(c - jx) == 3.0
    assert value(3 - jx) == 2.0
    assert value((-jx) + 1) == 0.0
    assert np.float64(2.0) * jx is not None  # numpy scalars defer to Jet


# --- batched arithmetic against the scalar kernel it replaced --------------

def _reference_pairs(nt):
    from spinlab.jets import MONOMIALS
    index = {m: n for n, m in enumerate(MONOMIALS)}
    I, J, K = [], [], []
    for a, ma in enumerate(MONOMIALS[:nt]):
        for b, mb in enumerate(MONOMIALS[:nt]):
            k = index.get(tuple(x + y for x, y in zip(ma, mb)))
            if k is not None and k < nt:
                I.append(a)
                J.append(b)
                K.append(k)
    return np.array(I), np.array(J), np.array(K)


def reference_mul(a, b):
    """The one-point ``bincount`` product kernel, kept as the reference."""
    I, J, K = _reference_pairs(len(a))
    return np.bincount(K, a[I] * b[J], minlength=len(a))


def reference_compose(c, ladder):
    """One-point composition f(jet) from [f, f', f'', f'''] at its value."""
    fact = [1.0, 1.0, 2.0, 6.0]
    order = {4: 1, 10: 2, 20: 3}[len(c)]
    s = c.copy()
    s[0] = 0.0
    out = np.zeros(len(c))
    out[0] = ladder[0]
    p = np.zeros(len(c))
    p[0] = 1.0
    for k in range(1, order + 1):
        p = reference_mul(p, s)
        out = out + (ladder[k] / fact[k]) * p
    return out


@pytest.mark.parametrize("nt", [4, 10, 20])
@pytest.mark.parametrize("npts", [1, 3, 17])
def test_batched_products_match_scalar_kernel(nt, npts):
    rng = np.random.default_rng(nt * 100 + npts)
    a = rng.uniform(-2.0, 2.0, (nt, npts))
    b = rng.uniform(-2.0, 2.0, (nt, npts))
    a[0] += 3.0  # keep value parts away from zero for the reciprocal
    prod = (Jet(a) * Jet(b)).c
    recip = (1.0 / Jet(a)).c
    sine = Jet(b).sin().c
    assert prod.shape == recip.shape == sine.shape == (nt, npts)
    for n in range(npts):
        x, y = a[:, n], b[:, n]
        # the batched kernel sums each product slot in another order
        assert np.allclose(prod[:, n], reference_mul(x, y),
                           rtol=1e-13, atol=1e-13)
        ladder = [1.0 / x[0], -1.0 / x[0] ** 2, 2.0 / x[0] ** 3,
                  -6.0 / x[0] ** 4]
        assert np.allclose(recip[:, n], reference_compose(x, ladder),
                           rtol=1e-13, atol=1e-13)
        s, c = np.sin(y[0]), np.cos(y[0])
        assert np.allclose(sine[:, n], reference_compose(y, [s, c, -s, -c]),
                           rtol=1e-13, atol=1e-13)
        one = Jet(x) * Jet(y)
        assert one.c.shape == (nt,)
        assert np.allclose(one.c, prod[:, n], rtol=1e-13, atol=1e-13)


# --- order 0 and 1: products without the pair table ---------------------------
# operand lengths whose product runs at order <= 1, one possibly longer
@pytest.mark.parametrize("lengths", [(1, 1), (4, 4), (1, 4), (4, 1), (4, 10),
                                     (20, 4), (1, 20)])
@pytest.mark.parametrize("npts", [None, 1, 6])
def test_order_one_products_match_the_bincount_kernel(lengths, npts):
    """Products and contractions of order-0 and order-1 jets form slot k as
    a[0] b[k] + a[k] b[0]: the bits of ``reference_mul``, per point, in a
    batch and at one point, exact zeros (which are never -0.0) included."""
    rng = np.random.default_rng(sum(lengths) * 10 + (npts or 0))
    points = () if npts is None else (npts,)
    nt = min(lengths)
    a = rng.uniform(-2.0, 2.0, (lengths[0], 2, 3) + points)
    b = rng.uniform(-2.0, 2.0, (lengths[1], 3) + points)
    a[:, 0, 0], b[:, 0] = -0.0, np.abs(b[:, 0])  # products -0.0
    prod = Jet(a[:, 0], (3,)) * Jet(b, (3,))
    outer = contract("ij,k->ijk", Jet(a, (2, 3)), Jet(b, (3,)))
    assert prod.c.shape == (nt, 3) + points
    assert outer.c.shape == (nt, 2, 3, 3) + points
    for n in np.ndindex(points):
        col = (slice(None), Ellipsis) + n
        x, y = a[col], b[col]
        for i, j, k in np.ndindex(2, 3, 3):
            want = reference_mul(x[:nt, i, j], y[:nt, k])
            assert outer.c[col][:, i, j, k].tobytes() == want.tobytes()
            if i == 0 and j == k:
                assert prod.c[col][:, j].tobytes() == want.tobytes()


@pytest.mark.parametrize("slot", [0, 1, 2, 3])
@pytest.mark.parametrize("npts", [None, 3])
def test_order_one_nan_reaches_only_the_slots_that_read_it(slot, npts):
    """A NaN in one slot of one entry reaches the product slots that read
    that slot (every slot for the value, slot k for slot k) and only the
    output entries that read that entry, as in the bincount kernel."""
    rng = np.random.default_rng(slot)
    points = () if npts is None else (npts,)
    a = rng.uniform(0.5, 2.0, (4, 3) + points)
    b = rng.uniform(0.5, 2.0, (4, 3) + points)
    a[(slot, 1) + (0,) * len(points)] = np.nan
    reads = np.zeros((4, 3) + points, dtype=bool)
    reads[(slice(None) if slot == 0 else slot, 1) + (0,) * len(points)] = True
    got = (Jet(a, (3,)) * Jet(b, (3,))).c
    assert np.array_equal(np.isnan(got), reads)
    summed = contract("i,i->", Jet(a, (3,)), Jet(b, (3,))).c
    assert np.array_equal(np.isnan(summed), reads[:, 1])
    for n in np.ndindex(points):
        col = (slice(None), 1) + n
        assert np.array_equal(np.isnan(got[col]),
                              np.isnan(reference_mul(a[col], b[col])))


# --- seeds compose from their monomial powers ----------------------------------
@pytest.mark.parametrize("u", [
    [0.4, -0.3, 0.8], [0.0, -0.0, 1e-300], [[0.4, -0.3, 0.8], [1.7, 0.2, -2.1]],
    [[800.0, 0.3, 0.9], [0.0, -0.0, 2.5]]], ids=["one", "zeros", "two", "huge"])
def test_seed_functions_give_the_bits_of_plain_jets(u):
    """sin, cos, exp, sqrt and the reciprocal of a seed write f^(k)(x0)/k!
    into the slots of dx_i^k; a plain jet copy builds the powers by
    products.  Both give the same bits at every seed order, signed zeros,
    overflow and NaN included, and every result is a plain jet."""
    for order in (1, 2, 3):
        for seed in variables(u, order):
            plain = Jet(seed.c.copy())
            assert type(seed) is not Jet and type(plain) is Jet
            for f in (Jet.sin, Jet.cos, jet_exp, Jet.sqrt, Jet._reciprocal):
                with np.errstate(all="ignore"):
                    try:
                        want = f(plain)
                    except (ValueError, ZeroDivisionError) as exc:
                        with pytest.raises(type(exc)):
                            f(seed)
                        continue
                    got = f(seed)
                assert type(got) is Jet and got.order == order
                assert got.c.tobytes() == want.c.tobytes(), (f.__name__,
                                                             order)
    x, y, z = variables([0.4, -0.3, 0.8])
    assert type(x * y) is type(-z) is type(2.0 / x) is type(y[()]) is Jet


def test_batch_guards_trip_on_any_point():
    x = jet_constant(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ZeroDivisionError):
        1.0 / x
    with pytest.raises(ValueError):
        (x - 0.5).sqrt()
    assert np.allclose((x + 1.0).sqrt().val, np.sqrt([2.0, 1.0, 3.0]))


def test_batched_derivatives_and_validity():
    u = np.array([[0.4, -0.3, 0.8], [0.2, 0.5, -0.6]])
    jet = f_scalar(*variables(u))
    assert jet.c.shape == (20, 2)
    for n in range(2):
        one = f_scalar(*variables(u[n]))
        assert np.allclose(jet.grad()[n], one.grad(), rtol=1e-13, atol=1e-13)
        assert np.allclose(jet.deriv().grad()[n], one.deriv().grad(),
                           rtol=1e-13, atol=1e-13)
        assert np.allclose(jet.deriv()[1].c[..., n], one.deriv()[1].c,
                           rtol=1e-13, atol=1e-13)
    assert jet.deriv()[0].deriv()[2].c.shape == (4, 2)


# --- tensor jets against the scalar jets they are made of ---------------------

@st.composite
def contractions(draw):
    """(subscripts, axis sizes, operand orders, point count or None, seed):
    two operands of up to two axes each, any output."""
    letters = "ijk"
    size = {c: draw(st.integers(1, 3)) for c in letters}
    sub_a = "".join(draw(st.permutations(letters))[:draw(st.integers(0, 2))])
    sub_b = "".join(draw(st.permutations(letters))[:draw(st.integers(0, 2))])
    free = sorted(set(sub_a + sub_b))
    out = "".join(draw(st.permutations(free))[:draw(st.integers(0, len(free)))])
    orders = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    npts = draw(st.sampled_from([None, 1, 3]))
    return (f"{sub_a},{sub_b}->{out}", size, orders, npts,
            draw(st.integers(0, 2 ** 32 - 1)))


def _nterms(order):
    return (order + 1) * (order + 2) * (order + 3) // 6


def _operands(subscripts, size, orders, npts, seed):
    rng = np.random.default_rng(seed)
    points = () if npts is None else (npts,)
    subs = subscripts.split("->")[0].split(",")
    return [Jet(rng.uniform(-2.0, 2.0, (_nterms(k),)
                            + tuple(size[c] for c in s) + points),
                tuple(size[c] for c in s))
            for s, k in zip(subs, orders)]


@given(contractions())
@settings(max_examples=150, deadline=None)
def test_contraction_is_a_sum_of_scalar_products(case):
    subscripts, size, orders, npts, seed = case
    a, b = _operands(*case)
    ins, out = subscripts.split("->")
    sub_a, sub_b = ins.split(",")
    got = contract(subscripts, a, b)
    assert got.shape == tuple(size[c] for c in out)
    assert got.order == min(orders)
    summed = sorted(set(sub_a + sub_b) - set(out))
    for idx in itertools.product(*(range(size[c]) for c in out)):
        at = dict(zip(out, idx))
        want = 0.0
        for rest in itertools.product(*(range(size[c]) for c in summed)):
            at.update(zip(summed, rest))
            ia = tuple(at[c] for c in sub_a)
            ib = tuple(at[c] for c in sub_b)
            want = want + a[ia] * b[ib]
        assert np.allclose(got.c[(slice(None),) + idx], want.c,
                           rtol=1e-13, atol=1e-13)


@given(contractions(), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_contraction_leibniz_rule_per_slot(case, v):
    """d(a . b) = da . b + a . db on every slot of the order-lowered jets."""
    subscripts, size, orders, npts, seed = case
    a, b = _operands(*case)
    if min(orders) < 1:
        with pytest.raises(AssertionError):
            contract(subscripts, a, b).deriv()
        return
    lhs = contract(subscripts, a, b).deriv()[v]
    rhs = (contract(subscripts, a.deriv()[v], b)
           + contract(subscripts, a, b.deriv()[v]))
    assert lhs.order == rhs.order == min(orders) - 1
    assert lhs.c.shape == rhs.c.shape
    for slot in range(len(lhs.c)):
        assert np.allclose(lhs.c[slot], rhs.c[slot], atol=1e-9), slot


@given(contractions())
@settings(max_examples=100, deadline=None)
def test_order_is_the_shorter_length_and_extraction_asserts(case):
    """Binary operations keep the shorter operand's length and equal the
    operation on both operands cut to that length; reading a derivative
    above the order asserts."""
    subscripts, size, orders, npts, seed = case
    a, b = _operands(*case)
    nt = _nterms(min(orders))
    cut_a, cut_b = (Jet(x.c[:nt], x.shape) for x in (a, b))

    def scalars(x, y):  # a scalar entry of each, broadcast against a
        return x[(0,) * len(x.shape)], y[(0,) * len(y.shape)]

    sa, s = scalars(a, b)
    cut_sa, cut_s = scalars(cut_a, cut_b)
    assert (sa.order, s.order) == orders
    for got, want in (
            (contract(subscripts, a, b), contract(subscripts, cut_a, cut_b)),
            (a * s, cut_a * cut_s), (s * a, cut_s * cut_a),
            (a + s, cut_a + cut_s), (a - s, cut_a - cut_s),
            (stack([sa, s]), stack([cut_sa, cut_s]))):
        assert got.order == min(orders) and len(got.c) == nt
        assert got.shape == want.shape
        assert np.array_equal(got.c, want.c)
    assert (a / (s * s + 1.0)).order == min(orders)
    got = contract(subscripts, a, b)
    for need, extract in ((1, got.grad), (1, got.deriv),
                          (2, lambda: got.deriv().grad())):
        if got.order < need:
            with pytest.raises(AssertionError):
                extract()
        else:
            extract()


@given(contractions())
@settings(max_examples=100, deadline=None)
def test_one_point_jets_match_batch_columns(case):
    subscripts, size, orders, npts, seed = case
    assume(npts is not None)
    a, b = _operands(*case)
    batch = contract(subscripts, a, b)
    prod = a * a
    for n in range(npts):
        one_a, one_b = (Jet(x.c[..., n], x.shape) for x in (a, b))
        one = contract(subscripts, one_a, one_b)
        assert one.c.shape == batch.c.shape[:-1]
        assert np.allclose(one.c, batch.c[..., n], rtol=1e-13, atol=1e-13)
        assert np.allclose(one.val, batch.val[n], rtol=1e-13, atol=1e-13)
        assert np.allclose((one_a * one_a).val, prod.val[n],
                           rtol=1e-13, atol=1e-13)
        if one.order >= 2:
            assert np.allclose(one.grad(), batch.grad()[n],
                               rtol=1e-13, atol=1e-13)
            assert np.allclose(one.deriv().grad(), batch.deriv().grad()[n],
                               rtol=1e-13, atol=1e-13)


# --- kernel layouts and column blocks ---------------------------------------
def test_derivatives_and_advanced_indexing_are_c_contiguous():
    jet = Jet(np.random.default_rng(3).uniform(-1.0, 1.0, (20, 4, 3, 50)),
              (4, 3))
    for got in (jet.deriv(), jet.deriv().deriv(), jet[[1, 0, 3, 2]],
                jet[np.array([0, 1])[:, None], np.array([2, 0])],
                jet[0, [1, 2]]):
        assert got.c.flags.c_contiguous, got
    d = jet.deriv()
    assert d.c.shape == (10, 3, 4, 3, 50) and d.shape == (3, 4, 3)
    for v in range(3):  # the derivative along v is its own jet
        assert np.array_equal(d[v].c, d.c[:, v])


@pytest.mark.parametrize("nt", [10, 20])
def test_value_and_first_derivative_slots_ignore_the_column_block(
        nt, monkeypatch):
    """Slots 0-3 of an order-2 or order-3 product or contraction sum at
    most two pair products, so they have the same bits for every column
    block of ``_apply``: one column per call, 7, the default budget, and
    every column in one call, at N = 1..129.  Values and first derivatives
    are all that the relations checks and ``min_headroom_log10`` read."""
    rng = np.random.default_rng(nt)
    size = jets._PAIRS[nt][2].size
    for npts in range(1, 130):
        a = Jet(rng.standard_normal((nt, 2, 3, npts)), (2, 3))
        b = Jet(rng.standard_normal((nt, 3, npts)), (3,))
        got = []
        for budget in (size, 7 * size, jets._BUDGET, 10 ** 12):
            monkeypatch.setattr(jets, "_BUDGET", budget)
            got.append([(a[0] * b).c[:4].tobytes(),
                        contract("ij,j->i", a, b).c[:4].tobytes()])
        assert all(g == got[0] for g in got), npts


# --- value layouts: one transpose against the moveaxis forms ----------------
@pytest.mark.parametrize("shape", [(), (4,), (3, 3), (2, 2, 2, 2)])
@pytest.mark.parametrize("points", [None, 1, 5])
@pytest.mark.parametrize("lead", [0, 1])
def test_points_first_equals_moveaxis(shape, points, lead):
    batch = () if points is None else (points,)
    jet = Jet(np.zeros((20,) + shape + batch), shape)
    x = np.arange(float(np.prod((3,) * lead + shape + batch))).reshape(
        (3,) * lead + shape + batch)
    want = np.moveaxis(x, range(lead), range(-lead, 0)) if lead else x
    want = np.moveaxis(want, len(shape), 0) if points is not None else want
    got = jet._points_first(x, lead)
    assert got.shape == want.shape and np.array_equal(got, want)


# --- worst residual: the array reduction against the list-based form --------
def _list_worst_of(residuals):
    arr = np.asarray(list(residuals), dtype=float)
    return float(np.max(arr)) if arr.size else 0.0


def _with_nan(shape, at):
    x = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    if at is not None:
        x.flat[at] = np.nan
    return x


@pytest.mark.parametrize("make", [
    lambda: _with_nan((7,), None), lambda: _with_nan((7,), 0),
    lambda: _with_nan((7,), 3), lambda: _with_nan((7,), -1),
    lambda: _with_nan((3, 4), None), lambda: _with_nan((3, 4), 0),
    lambda: _with_nan((3, 4), 5), lambda: _with_nan((3, 4), -1),
    lambda: _with_nan((3, 4), 5).T, lambda: np.array([-2.0, -1.0]),
    lambda: np.zeros(0), lambda: np.zeros((3, 0)), lambda: np.arange(4),
    lambda: [0.5, float("nan"), 2.0], lambda: [1e-300, 5e-324, 0.0],
    lambda: (float(v) for v in (3.0, 1.0, float("nan"))),
    lambda: (v for v in (2.0, 7.0)), lambda: [], lambda: iter(()),
])
def test_worst_of_matches_the_list_reduction(make):
    """NaN anywhere gives NaN, no residual gives 0.0, and arrays, lists and
    generators all give the bits of the list-based reduction."""
    got, want = worst_of(make()), _list_worst_of(make())
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
