"""Presentations, Todd-Coxeter enumeration, chain normal forms and a
permutation oracle for alternating subgroups of Coxeter groups and their
spinor extensions."""

from .words import (Word, Presentation, parse_word, render_word,
                    free_reduce, word_invert, commutator, WordSyntaxError)
from .coxeter import (CoxeterMatrix, CoxeterGraph, ConnectedExtension,
                      INFINITY, MatrixError, standard_matrix,
                      graph_from_matrix, connected_extension, cycle_basis,
                      graph_to_dot)
from .engine import (enumerate, order, schreier, word_in_subgroup,
                     words_equal, to_dot, CosetTable, CapExceeded, BACKEND,
                     DEFAULT_CAP)
from .presentations import (coxeter_presentation, bourbaki_presentation,
                            edge_presentation, edge_presentation_for_matrix,
                            chain_presentation, carmichael_generators,
                            vv_presentation, spinor_presentation,
                            spinor_plus_presentation, spinor_chain_presentation,
                            universal_extension, quotient_by_generators,
                            spinor_iso, bourbaki_edge_homs, GroupHom,
                            compose, is_identity_hom, EdgeGeneratorMap,
                            BuildError)
from .chains import (ChainSpec, Chain, ChainDecomposition,
                     rep_set, decompose, enumerate_elements, ChainError)
from . import oracle

__version__ = "0.1.0"
