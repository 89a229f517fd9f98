"""
Group elements: composing, inverting, serializing
=================================================

A general transform is parametrized by (chi; psi, theta, phi), realized as
a 2x2 unitary matrix for bookkeeping, plus a fifth angle omega that the
matrix does not see.  On rectangular screens the flat levels attach an
extra central phase to the antisymmetric transform, and omega tracks it
(see the README).  Elements compose and invert in parameter space:
applying compose(a, b) equals applying b and then a, and the inverse,
every angle negated, restores any image to machine precision.
"""

import numpy as np

from fkimage import (FourierGroupElement, apply_element, build_basis,
                     compose, element_from_json, element_to_json, f_glyph,
                     inverse, to_matrix)

basis = build_basis((20, 12))
glyph = f_glyph().astype(complex)

e = FourierGroupElement(chi=1.2, psi=0.4, theta=0.9, phi=2.2)
print("element:", element_to_json(e))
print("matrix:\n", np.round(to_matrix(e), 6))

# the inverse negates each angle: D(-chi; -phi, -theta, -psi; -omega)
inv = inverse(e)
print("inverse:", element_to_json(inv))

# applying e then its inverse is exact to machine precision
once = apply_element(basis, glyph, e)
back = apply_element(basis, once, inv)
print("round-trip pixel error:", np.max(np.abs(back - glyph)))

# compose(e, inverse(e)) is the identity to the rounding of the product
c = compose(e, inv)
print("compose(e, inverse(e)) matrix error:",
      np.max(np.abs(to_matrix(c) - np.eye(2))))

# composing in parameter space equals applying in sequence
f = FourierGroupElement(chi=0.3, psi=5.1, theta=2.0, phi=0.6)
ef = compose(e, f)
print("compose(e, f):", element_to_json(ef))
sequential = apply_element(basis, apply_element(basis, glyph, f), e)
print("compose vs sequential pixel error:",
      np.max(np.abs(apply_element(basis, glyph, ef) - sequential)))

# pure gyrations compose additively in theta
g1 = FourierGroupElement(0, 0, 0.5, 0)
g2 = FourierGroupElement(0, 0, 0.7, 0)
print("gyrations add:", compose(g1, g2).theta)

# JSON round trip (the CLI wire format)
decoded = element_from_json(element_to_json(e))
print("JSON round trip ok:", decoded == e)
