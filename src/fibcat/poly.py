"""Polynomials over Q, the one place that multiplies and collects them: Poly
in named variables, and coefficient lists in one variable, highest first."""

import math


class Poly(dict):
    """{monomial: coefficient}: a monomial is the sorted tuple of its names,
    each repeated by its degree, () the constant; a coefficient is an int or
    a Fraction.  + - * keep a zero coefficient, so a name that cancels is
    still read: `n - n` needs n."""

    __slots__ = ()

    def __add__(self, other):
        return collect(other.items(), Poly(self))

    def __sub__(self, other):
        return collect([(m, -c) for m, c in other.items()], Poly(self))

    def __mul__(self, other):
        pairs = [(tuple(sorted(ml + mr)), cl * cr) for ml, cl in self.items() for mr, cr in other.items()]
        return collect(pairs, Poly())

    def constant(self):
        """The value of a polynomial without names, else None."""
        return self.get(()) if len(self) == 1 else None

    def coefficients(self, name: str, env: dict) -> list:
        """The coefficient list in `name`, the other names bound by `env` (else KeyError)."""
        out = []
        for m, c in self.items():
            d = m.count(name)
            out += [0] * (d + 1 - len(out))
            out[d] += c * math.prod([env[x] for x in m if x != name])
        return out[::-1]


def collect(pairs, into: dict) -> dict:
    """`into` with each (key, coefficient) pair added to it, like keys summed."""
    for m, c in pairs:
        into[m] = into.get(m, 0) + c
    return into


def linear_product(factors, c=1) -> list:
    """The coefficient list of c * prod(s*x + o for s, o in factors)."""
    out = [c]
    for s, o in factors:
        out = [a * s + b * o for a, b in zip(out + [0], [0] + out)]
    return out
