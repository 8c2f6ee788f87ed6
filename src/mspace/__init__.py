"""Measurement-space maps of quantum states.

Given a set of generalized measurements, every pure state has an image whose
amplitudes are the square roots of the outcome probabilities, one orthonormal
axis per outcome. The package computes that map, compares entanglement on
both sides of it, audits the local protocol constructions behind it, checks
the concurrence factorization relations for qubit channels, and evaluates
the counting bounds for mode entanglement.
"""
