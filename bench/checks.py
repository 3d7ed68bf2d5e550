"""Independent checks of benchmark outputs, evaluated with mpmath.

Every expected value is re-derived from the generated number itself: its
expansion comes from ``gen`` (plain integer code), its value from the closed
form of the periodic tail or the surd, and psi from the nearest-integer
distance of ``tests/_oracles.py`` at a working precision chosen for the size
of the output. The oracles module is imported unmodified and used wherever
it applies (constants, the (U, V) search, brute-force psi, nearest-integer
distance, the unrolled continued fraction). Nothing here calls psidiff, so a
fixed defect shows up as fewer failures rather than as a mismatch.

Each ``Checker`` method raises ``Mismatch`` on the first disagreement.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath
from mpmath import mpf

import _oracles as oracles
import gen
from ops import M61


class Mismatch(Exception):
    """An output disagrees with its independent re-derivation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def digits_for(magnitude: int, digits: int = 12) -> int:
    """Working precision for 1/psi at t ~ 10**magnitude rendered to ``digits`` places.

    ||q x|| with q <= t loses about 2*magnitude digits to cancellation and
    1/psi ~ t adds another magnitude before the decimal point.
    """
    return 3 * magnitude + digits + 30


def oracle(fn, *args):
    """Call an oracle that sets mpmath's global precision, then restore it."""
    dps = mpmath.mp.dps
    try:
        return fn(*args)
    finally:
        mpmath.mp.dps = dps


# -- numbers -------------------------------------------------------------------


class _OracleCF:
    """The attributes ``_oracles.mp_cf_value`` reads from a CFExpansion."""

    def __init__(self, num: gen.Num):
        self.a0, self.preperiod, self.period = num.a0, num.pre, num.period

    def partial_quotient(self, j: int) -> int:
        if j == 0:
            return self.a0
        if j <= len(self.preperiod):
            return self.preperiod[j - 1]
        return self.period[(j - len(self.preperiod) - 1) % len(self.period)]


def cf_value(a0: int, pre, period) -> mpf:
    """Value of [a0; pre, (period)] at the current precision."""
    (p, p1), (q, q1) = gen.period_matrix(period)
    x = ((p - q1) + mpmath.sqrt((q1 - p) ** 2 + 4 * q * p1)) / (2 * q)
    for a in reversed(pre):
        x = a + 1 / x
    return a0 + 1 / x


class Number:
    """Convergents and high-precision values of one generated number."""

    def __init__(self, num: gen.Num):
        self.num = num
        self.cf = _OracleCF(num)
        self.convs = [(num.a0, 1)]  # (p_n, q_n) for n = 0, 1, ...
        self._prev = (1, 0)
        self._values: dict[int, mpf] = {}
        self._walk = (0, (num.a0, 1), (1, 0))
        with mpmath.workdps(oracles.DPS):
            mine = self.value()
        expected = oracle(oracles.mp_cf_value, self.cf)
        expect(abs(mine - expected) < mpf(10) ** -45,
               f"closed form of {num.spec} disagrees with the unrolled expansion")

    def quotient(self, j: int) -> int:
        return self.cf.partial_quotient(j)

    def value(self) -> mpf:
        dps = mpmath.mp.dps
        if dps not in self._values:
            n = self.num
            if n.surd is not None:
                P, D, Q = n.surd
                self._values[dps] = (P + mpmath.sqrt(D)) / Q
            else:
                self._values[dps] = cf_value(n.a0, n.pre, n.period)
        return self._values[dps]

    def conv(self, n: int) -> tuple[int, int]:
        while len(self.convs) <= n:
            (p, q), (pp, qp) = self.convs[-1], self._prev
            a = self.quotient(len(self.convs))
            self._prev = (p, q)
            self.convs.append((a * p + pp, a * q + qp))
        return self.convs[n]

    def index_at(self, t: int) -> int:
        """Largest r with q_r <= t."""
        r = 0
        while self.conv(r + 1)[1] <= t:
            r += 1
        return r

    def denominators(self, lo: int, hi: int) -> set[int]:
        out, n = set(), 0
        while self.conv(n)[1] <= hi:
            if self.conv(n)[1] >= lo:
                out.add(self.conv(n)[1])
            n += 1
        return out

    def xi(self, n: int) -> mpf:
        p, q = self.conv(n)
        return abs(q * self.value() - p)

    def inv_psi(self, t: int) -> mpf:
        return 1 / oracles.mp_dist_to_nearest(self.conv(self.index_at(t))[1] * self.value())

    def walk_to(self, t: int) -> tuple[int, int, int]:
        """(r, p_r, q_r) with r the largest index with q_r <= t, in O(1) memory.

        For deep t, where a list of every convergent would not fit; the walk
        resumes from the previous call when t does not decrease.
        """
        r, (p, q), (pp, qp) = self._walk
        if q > t:
            r, (p, q), (pp, qp) = 0, (self.num.a0, 1), (1, 0)
        while True:
            a = self.quotient(r + 1)
            nxt = (a * p + pp, a * q + qp)
            if nxt[1] > t:
                break
            (pp, qp), (p, q), r = (p, q), nxt, r + 1
        self._walk = (r, (p, q), (pp, qp))
        return r, p, q


def const(name: str) -> mpf:
    """tau, phi, K, C at the current precision, agreeing with the oracle's 60 digits."""
    sqrt5 = mpmath.sqrt(5)
    tau, phi = (sqrt5 + 1) / 2, (sqrt5 - 1) / 2
    return {"tau": tau, "phi": phi, "K": mpmath.sqrt(tau) - 1,
            "C": sqrt5 * (1 - mpmath.sqrt(phi))}[name]


def _oracle_consts() -> dict[str, mpf]:
    values = {name: oracle(oracles.mp_const, name) for name in ("tau", "phi", "K", "C")}
    with mpmath.workdps(80):
        for name, value in values.items():
            expect(abs(const(name) - value) < mpf(10) ** -55, f"constant {name} disagrees")
    return values


# -- decimal strings -----------------------------------------------------------


def _big_int(digits: str) -> int:
    """int() of a digit string of any length, in chunks below the str-to-int limit."""
    n = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def check_render(text: str, value: mpf, digits: int, what: str) -> None:
    """``text`` is ``value`` correctly rounded to ``digits`` places."""
    expect(isinstance(text, str) and re.fullmatch(rf"-?\d+\.\d{{{digits}}}", text) is not None,
           f"{what}: malformed decimal {str(text)[:40]!r}")
    whole, frac = text.lstrip("-").split(".")
    scaled = _big_int(whole + frac) * (-1 if text.startswith("-") else 1)
    err = abs(scaled - value * mpf(10) ** digits)
    if err > mpf("0.5000001"):  # the message avoids decimal conversion of huge values
        raise Mismatch(f"{what}: {text[:40]} is off by {float(err):.3g} units in the last place")


_SURD_STR = re.compile(r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)√(\d+))?")


def surd_string_value(text: str) -> mpf:
    """Value of the a+b√D strings the program prints for exact field elements."""
    m = _SURD_STR.fullmatch(text)
    expect(m is not None, f"malformed exact value {text[:40]!r}")
    a, sign, b, d = m.groups()
    fa = Fraction(a)
    value = mpf(fa.numerator) / fa.denominator
    if b is not None:
        fb = Fraction(b) * (1 if sign == "+" else -1)
        value += mpf(fb.numerator) / fb.denominator * mpmath.sqrt(int(d))
    return value


def close(x: mpf, y: mpf, rel: int = 30) -> bool:
    return abs(x - y) <= mpf(10) ** -rel * (1 + abs(y))


def strict_sign(x: mpf) -> int:
    """Sign of x, or 0 when x is within the working precision of zero."""
    tiny = mpf(10) ** (-(mpmath.mp.dps // 2))
    return 0 if abs(x) < tiny else (1 if x > 0 else -1)


# -- checker -------------------------------------------------------------------


class Checker:
    """Caches per-number state across the checks of one run."""

    def __init__(self):
        self.numbers: dict[str, Number] = {}
        self.oracle_consts = _oracle_consts()

    def number(self, num: gen.Num) -> Number:
        if num.spec not in self.numbers:
            self.numbers[num.spec] = Number(num)
        return self.numbers[num.spec]

    # deep_t -----------------------------------------------------------------

    def deep_t(self, op: dict, rec: dict) -> None:
        alpha, beta = self.number(op["alpha"]), self.number(op["beta"])
        e = op["t_exp"]
        t = 10**e
        ra, pa, qa = alpha.walk_to(t)
        rb, pb, qb = beta.walk_to(t)
        # sign and verdict need |d| ~ t to a few digits; a rendered d needs 12 places
        with mpmath.workdps(digits_for(e) if "d" in rec else 2 * e + 40):
            inv_a = 1 / oracles.mp_dist_to_nearest(qa * alpha.value())
            inv_b = 1 / oracles.mp_dist_to_nearest(qb * beta.value())
            d = inv_b - inv_a
            if "sign" in rec:
                s = strict_sign(d)
                expect(s == 0 or rec["sign"] == s, f"sign of d(10^{e}) is {s}, got {rec['sign']}")
            if "verdict" in rec:
                gap = abs(d) / t - const("C")
                want = "greater" if gap > 0 else "less"
                expect(rec["verdict"] == want or abs(gap) < mpf(10) ** -40,
                       f"|d(10^{e})| vs C*t is {want}, got {rec['verdict']}")
            if "psi" in rec:
                expect(rec["psi"] == [[ra, qa % M61], [rb, qb % M61]],
                       f"psi at 10^{e} picked the wrong convergent")
            if "d" in rec:
                check_render(rec["d"], d, 12, f"d(10^{e})")

    # profile_scan and the profile/word/witness commands -------------------------

    def profile(self, alpha: gen.Num, beta: gen.Num, t_min: int, t_max: int,
                digits: int, entries: list[dict], changes: list[int] | None) -> None:
        a, b = self.number(alpha), self.number(beta)
        points = sorted(a.denominators(t_min, t_max) | b.denominators(t_min, t_max))
        if not points or points[0] > t_min:
            points.insert(0, t_min)
        expect([e["t"] for e in entries] == points, "profile breakpoints differ")
        signs = []
        with mpmath.workdps(digits_for(len(str(t_max)), digits)):
            for entry in entries:
                t = entry["t"]
                inv_a, inv_b = a.inv_psi(t), b.inv_psi(t)
                check_render(entry["inv_psi_alpha"], inv_a, digits, f"1/psi_alpha({t})")
                check_render(entry["inv_psi_beta"], inv_b, digits, f"1/psi_beta({t})")
                check_render(entry["d"], inv_b - inv_a, digits, f"d({t})")
                signs.append(strict_sign(inv_b - inv_a))
        if changes is not None:
            expect(0 not in signs, "sign changes reported across an exactly zero step")
            flips = [points[i] for i in range(1, len(points)) if signs[i] != signs[i - 1]]
            expect(changes == flips, "sign changes differ")

    def word(self, alpha: gen.Num, beta: gen.Num, count: int, letters: list) -> None:
        def distinct(x: Number):
            n = 0
            while True:
                q = x.conv(n)[1]
                if x.conv(n + 1)[1] != q:  # of a repeated 1 the later index is kept
                    yield q, n
                n += 1

        qs, ts = distinct(self.number(alpha)), distinct(self.number(beta))
        (qv, qn), (tv, tn) = next(qs), next(ts)
        want = []
        while len(want) < count:
            if qv == tv:
                want.append(["B", qn, tn, qv])
                (qv, qn), (tv, tn) = next(qs), next(ts)
            elif qv < tv:
                want.append(["Q", qn, None, qv])
                qv, qn = next(qs)
            else:
                want.append(["T", None, tn, tv])
                tv, tn = next(ts)
        expect(letters == want, "merged word differs")

    def witness(self, alpha: gen.Num, beta: gen.Num, start: int, bound: int,
                digits: int, payload: dict) -> None:
        a, b = self.number(alpha), self.number(beta)
        t = payload["t"]
        candidates = sorted({start} | a.denominators(start, bound) | b.denominators(start, bound))
        expect(t in candidates, f"witness t={t} is not a step left end")
        with mpmath.workdps(digits_for(len(str(bound)), digits)):
            C = const("C")
            for c in candidates[: candidates.index(t) + 1]:
                ratio = abs(b.inv_psi(c) - a.inv_psi(c)) / c
                expect((ratio > C) == (c == t), f"witness is not the first t with |d| >= C*t ({c})")
            d = b.inv_psi(t) - a.inv_psi(t)
            dec = payload["decimal"]
            check_render(dec["d"], d, digits, f"witness d({t})")
            check_render(dec["c_times_t"], C * t, digits, "witness C*t")
            lower = mpf(_big_int(dec["ratio_lower_bound"].replace(".", ""))) / mpf(10) ** digits
            expect(abs(lower - abs(d) / t) <= mpf(10) ** -digits, "witness ratio bound is off")
        expect(payload["indices"] == {"alpha_r": a.index_at(t), "beta_l": b.index_at(t)},
               "witness indices differ")
        expect(payload["verdict"] == "greater", "witness verdict")

    def profile_scan(self, op: dict, rec: dict) -> None:
        if "entries" in rec:
            self.profile(op["alpha"], op["beta"], 1, op["bound"], op["digits"],
                         rec["entries"], rec.get("sign_changes"))
        if "word" in rec:
            self.word(op["alpha"], op["beta"], op["count"], rec["word"])
        if "witness" in rec:
            self.witness(op["alpha"], op["beta"], op["from"], op["bound"], op["digits"],
                         rec["witness"])

    # lemma_depth and the lemmas/construct/verify commands ------------------------

    def lemmas(self, alpha: gen.Num, beta: gen.Num, depth: int, digits: int, rec: dict) -> None:
        a, b = self.number(alpha), self.number(beta)
        qs = [a.conv(n)[1] for n in range(depth + 3)]
        ts = [b.conv(n)[1] for n in range(depth + 3)]
        r = range(depth + 1)
        if "conseq" in rec:
            want = sorted((n, m) for n in r for m in r if (qs[n], qs[n + 1]) == (ts[m], ts[m + 1]))
            expect(rec["conseq"] == [list(x) for x in want], "conseq pairs differ")
        if "conseq1" in rec:
            want = sorted((n, m) for n in r for m in r
                          if a.quotient(n + 2) == 1 and (qs[n], qs[n + 2]) == (ts[m + 1], ts[m + 2]))
            expect(rec["conseq1"] == [list(x) for x in want], "conseq1 pairs differ")
        with mpmath.workdps(3 * len(str(max(qs[-1], ts[-1]))) + digits + 40):
            if "interleave_gap" in rec:
                self._gaps(a, b, qs, ts, depth, digits, rec["interleave_gap"])
            if "dichotomy" in rec:
                self._dichotomy(a, b, depth, digits, rec["dichotomy"])

    def _gaps(self, a, b, qs, ts, depth, digits, certs) -> None:
        want = []
        for n in range(1, depth + 1):
            if a.quotient(n + 1) >= 2:
                want += [("a", n, m, ts[m - 1], qs[n], qs[n], a.quotient(n + 1))
                         for m in range(1, depth + 1)
                         if ts[m - 1] < qs[n] < ts[m] and qs[n - 1] <= ts[m - 1]]
        for m in range(1, depth + 1):
            if b.quotient(m + 1) >= 2:
                want += [("b", n, m, qs[n - 1], ts[m], ts[m], b.quotient(m + 1))
                         for n in range(1, depth + 1)
                         if qs[n - 1] < ts[m] < qs[n] and ts[m - 1] <= qs[n - 1]]
        got = [(c["kind"][-1], c["indices"]["n"], c["indices"]["m"],
                c["indices"]["first_point"], c["indices"]["second_point"]) for c in certs]
        expect(got == [w[:5] for w in want], "interleave patterns differ")
        for (pattern, n, m, first, second, bound, quotient), cert in zip(want, certs):
            d_first = b.inv_psi(first) - a.inv_psi(first)
            d_second = b.inv_psi(second) - a.inv_psi(second)
            x = a if pattern == "a" else b
            delta = x.inv_psi(second) - x.inv_psi(first)
            expect(delta > bound * (quotient - 1), f"gap inequality fails at {pattern}{(n, m)}")
            verified = [p for p, d in ((first, d_first), (second, d_second)) if abs(d) > mpf(bound) / 2]
            expect(cert["t"] == verified[0], f"gap certificate point differs at {pattern}{(n, m)}")
            dec = cert["decimal"]
            check_render(dec["d_first"], d_first, digits, "gap d_first")
            check_render(dec["d_second"], d_second, digits, "gap d_second")
            check_render(dec["delta"], delta, digits, "gap delta")
            expect(close(surd_string_value(cert["exact_values"]["delta"]), delta), "gap exact delta")
            check_render(dec["threshold"], mpf(bound * (quotient - 1)), digits, "gap threshold")
            check_render(dec["half_bound"], mpf(bound) / 2, digits, "gap half bound")
            expect(cert["verdict"] == "verified", "gap verdict")

    def _dichotomy(self, a, b, depth, digits, records) -> None:
        xis = [a.xi(n) for n in range(depth + 1)]
        want, n = [], 1
        for s in range(depth + 1):
            eta = b.xi(s)
            while n <= depth and not xis[n] < eta:
                n += 1
            if n > depth:
                break
            if eta < xis[n - 1]:
                want.append((n, s, eta))
        expect([(r["indices"]["n"], r["indices"]["s"]) for r in records] == [w[:2] for w in want],
               "dichotomy index pairs differ")
        tol = mpf(10) ** -30
        for (n, s, eta), rec in zip(want, records):
            factor = 1 - 1 / mpmath.sqrt(xis[n - 1] / xis[n])  # alpha_{n+1} = xi_{n-1}/xi_n
            first = (1 / eta - 1 / xis[n - 1]) - factor / eta
            second = (1 / xis[n] - 1 / eta) - factor / xis[n]
            expect(first > -tol or second > -tol, f"dichotomy fails at {(n, s)}")
            if abs(first) > tol and abs(second) > tol:
                want_branch = ("both" if first > 0 and second > 0
                               else "first_branch" if first > 0 else "second_branch")
                expect(rec["verdict"] == want_branch, f"dichotomy branch differs at {(n, s)}")
            for key, value in (("xi_n_minus_1", xis[n - 1]), ("xi_n", xis[n]), ("eta_s", eta)):
                check_render(rec["decimal"][key], value, digits, f"dichotomy {key}")
                expect(close(surd_string_value(rec["exact_values"][key]), value),
                       f"dichotomy exact {key}")

    def construct(self, epsilon: str, digits: int, payload: dict) -> tuple[int, tuple]:
        eps = Fraction(epsilon)
        U, V = oracle(oracles.float_uv_search, eps)
        expect((payload["U"], payload["V"]) == (U, V), f"(U, V) for epsilon {epsilon} differs")
        xs = [U, V]
        while not any(1 <= xs[i - 1] < xs[i] for i in range(1, len(xs))):
            xs.append(xs[-1] + xs[-2])
        k = next(i for i in range(1, len(xs)) if 1 <= xs[i - 1] < xs[i])
        num, den, quotients = xs[k - 1], xs[k], []
        while den:
            quotients.append(num // den)
            num, den = den, num % den
        if len(quotients) > 1 and quotients[-1] == 1:
            quotients.pop()
            quotients[-1] += 1
        bword = tuple(reversed(quotients[1:]))
        theta = gen.cf_num(0, bword, (1,))
        expect(payload["b"] == list(bword) and payload["theta"] == theta.spec[3:],
               "companion theta differs")
        expect(payload["indices"] == {"k": k, "w": len(bword), "index_shift": k - len(bword)},
               "construction indices differ")
        expect(payload["epsilon"] == str(eps), "epsilon echo differs")
        with mpmath.workdps(60):
            tau, phi = const("tau"), const("phi")
            check_render(payload["decimal"]["A"], (tau * V + U) / (tau + 2), digits, "A")
            check_render(payload["decimal"]["error"], abs(V + U * phi - mpmath.sqrt(tau)),
                         digits, "approximation error")
        return len(bword), theta

    def verify(self, epsilon: str, t_min: int, t_max: int, digits: int,
               pair: dict, report: dict) -> None:
        w, theta_num = self.construct(epsilon, digits, pair)
        tau, theta = self.number(gen.TAU), self.number(theta_num)
        slack = 5 * Fraction(epsilon)
        t_lo = max(t_min, theta.conv(w + 10)[1])
        points = sorted(tau.denominators(t_lo, t_max) | theta.denominators(t_lo, t_max))
        if not points or points[0] > t_lo:
            points.insert(0, t_lo)
        with mpmath.workdps(digits_for(len(str(t_max)), digits)):
            bound = const("C") + mpf(slack.numerator) / slack.denominator
            ratios = [abs(theta.inv_psi(t) - tau.inv_psi(t)) / t for t in points]
            top = max(ratios)
            expect(report["t"] == points[ratios.index(top)], "near-optimality argmax differs")
            expect(report["verdict"] == ("pass" if top < bound else "fail"), "near-optimality verdict")
            expect(report["indices"] == {"t_min": t_lo, "t_max": t_max}, "verified range differs")
            dec = report["decimal"]
            for key in ("max_ratio_lo", "max_ratio_hi"):
                got = mpf(_big_int(dec[key].replace(".", ""))) / mpf(10) ** digits
                expect(abs(got - top) <= mpf(10) ** -digits, f"{key} is off")
            check_render(dec["c_plus_slack"], bound, digits, "C + slack")

    def lemma_depth(self, op: dict, rec: dict) -> None:
        self.lemmas(op["alpha"], op["beta"], op["depth"], op["digits"], rec)
        if "pair" in rec and "report" not in rec:
            self.construct(op["epsilon"], op["digits"], rec["pair"])
        if "report" in rec:
            self.verify(op["epsilon"], op["from"], op["bound"], op["digits"],
                        rec["pair"], rec["report"])

    # failures -----------------------------------------------------------------

    def confirm_failures(self, workload: str, op: dict, rec: dict, errors: list[str]) -> None:
        """Raise Mismatch unless the checks confirm every failed step of an operation.

        A failed step leaves its keys out of the record. Confirmed failures:
        ``undecided_sign`` where d(t) is exactly zero at a profile breakpoint
        (a known defect), ``ValueError`` from rendering a d(t) whose decimal
        form passes Python's 4300-digit int-to-str limit (a known defect), and
        ``not_found_in_range`` where no step left end in range is a witness.
        """
        if workload == "profile_scan":
            steps = [s for s in ("sign_changes", "word", "witness") if s not in rec]
        elif workload == "lemma_depth":
            steps = [s for s in ("dichotomy", "report") if s not in rec]
        elif workload == "deep_t":
            steps = ["d" if "psi" in rec else "sign"] if errors else []
        else:
            steps = [op["command"]] if errors else []
        expect(len(steps) == len(errors), f"failed steps {steps} do not match errors {errors}")
        for step, code in zip(steps, errors):
            if code == "undecided_sign" and step == "sign_changes":
                expect(self._zero_step(op["alpha"], op["beta"], 1, op["bound"]),
                       "undecided_sign, yet d(t) is nonzero at every breakpoint")
            elif code == "ValueError" and step == "d":
                e = op["t_exp"]
                with mpmath.workdps(2 * e + 40):
                    d = self._d_at(op["alpha"], op["beta"], e)
                    expect(abs(d) * mpf(10) ** op.get("digits", 12) >= mpf(10) ** 4300,
                           f"ValueError rendering d(10^{e}), which has fewer than 4300 digits")
            elif code == "not_found_in_range" and step == "witness":
                self._no_witness(op["alpha"], op["beta"], op["from"], op["bound"])
            else:
                raise Mismatch(f"{step} failed with {code}, which the checks cannot confirm")

    def _d_at(self, alpha: gen.Num, beta: gen.Num, e: int) -> mpf:
        a, b, t = self.number(alpha), self.number(beta), 10**e
        qa, qb = a.walk_to(t)[2], b.walk_to(t)[2]
        return (1 / oracles.mp_dist_to_nearest(qb * b.value())
                - 1 / oracles.mp_dist_to_nearest(qa * a.value()))

    def _zero_step(self, alpha: gen.Num, beta: gen.Num, t_min: int, t_max: int) -> bool:
        a, b = self.number(alpha), self.number(beta)
        points = {t_min} | a.denominators(t_min, t_max) | b.denominators(t_min, t_max)
        with mpmath.workdps(digits_for(len(str(t_max)))):
            return any(strict_sign(b.inv_psi(t) - a.inv_psi(t)) == 0 for t in points)

    def _no_witness(self, alpha: gen.Num, beta: gen.Num, start: int, bound: int) -> None:
        a, b = self.number(alpha), self.number(beta)
        points = {start} | a.denominators(start, bound) | b.denominators(start, bound)
        with mpmath.workdps(digits_for(len(str(bound)))):
            C = const("C")
            for t in sorted(points):
                expect(abs(b.inv_psi(t) - a.inv_psi(t)) < C * t,
                       f"not_found_in_range, yet t={t} is a witness")

    # cli_mix ------------------------------------------------------------------

    def cli_mix(self, op: dict, rec: dict) -> None:
        command, out, digits = op["command"], rec["stdout"], op.get("digits", 12)
        if command == "profile":
            lines = out.splitlines()
            expect(lines[0] == f"t,inv_psi_alpha,inv_psi_beta,d,digits={digits}", "csv header")
            entries = [dict(zip(("t", "inv_psi_alpha", "inv_psi_beta", "d"), line.split(",")))
                       for line in lines[1:]]
            for e in entries:
                e["t"] = int(e["t"])
            self.profile(op["alpha"], op["beta"], op["from"], op["bound"], digits, entries, None)
            return
        payload = json.loads(out)
        if command == "constants":
            values = self.oracle_consts
            with mpmath.workdps(oracles.DPS + 20):
                for key, value in (("tau", values["tau"]), ("phi", values["phi"]),
                                   ("K", values["K"]), ("C", values["C"]),
                                   ("2C+1", 2 * values["C"] + 1)):
                    check_render(payload[key], value, digits, f"constant {key}")
        elif command == "expand":
            num = op["number"]
            x = self.number(num)
            with mpmath.workdps(300):
                got = cf_value(payload["a0"], payload["preperiod"], payload["period"])
                expect(close(got, x.value(), 280), f"expansion of {num.spec} differs")
            body = ",".join(map(str, payload["preperiod"]))
            period = "(" + ",".join(map(str, payload["period"])) + ")"
            expect(payload["expansion"] == f"[{payload['a0']};{body + ',' if body else ''}{period}]",
                   "expansion string differs")
        elif command == "psi":
            x, t = self.number(op["number"]), op["t"]
            r = x.index_at(t)
            expect((payload["index"], payload["q"]) == (r, x.conv(r)[1]), "psi convergent differs")
            if t <= 2000:
                with mpmath.workdps(oracles.DPS):
                    q_star, _ = oracles.brute_force_psi_table(x.value(), t)[-1]
                expect(payload["q"] == q_star, "psi minimiser differs from brute force")
            with mpmath.workdps(digits_for(len(str(t)), digits)):
                inv = x.inv_psi(t)
                check_render(payload["psi"], 1 / inv, digits, "psi")
                check_render(payload["inv_psi"], inv, digits, "1/psi")
                expect(close(surd_string_value(payload["psi_exact"]), 1 / inv), "exact psi")
                expect(close(surd_string_value(payload["inv_psi_exact"]), inv), "exact 1/psi")
        elif command == "witness":
            self.witness(op["alpha"], op["beta"], op["from"], op["bound"], digits, payload)
        elif command == "word":
            self.word(op["alpha"], op["beta"], op["count"],
                      [[x["kind"], x["n"], x["s"], x["value"]] for x in payload["letters"]])
            expect(payload["word"] == ",".join(x["kind"] for x in payload["letters"]), "word string")
        elif command == "lemmas":
            self.lemmas(op["alpha"], op["beta"], op["depth"], digits, payload)
        elif command == "construct-optimal":
            self.construct(op["epsilon"], digits, payload)
        elif command == "verify-optimal":
            self.verify(op["epsilon"], op["from"], op["bound"], digits,
                        payload["pair"], payload["report"])
