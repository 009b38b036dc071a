"""Presentations, Todd-Coxeter enumeration, chain normal forms and a
permutation oracle for alternating subgroups of Coxeter groups and their
spinor extensions."""

__version__ = "0.1.0"
