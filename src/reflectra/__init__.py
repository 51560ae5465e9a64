"""Monomial reflection groups G(r, p, n) and the integral spectra of their
reflection Cayley graphs, computed by independent numeric, class-algebra,
and combinatorial routes."""
