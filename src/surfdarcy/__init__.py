"""Stabilized cut finite element solver for the Darcy problem on implicitly
defined closed surfaces, with the torus convergence benchmark built in."""

__version__ = "0.1.0"
