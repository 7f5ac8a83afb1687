"""Dyck and ballot tilings over Z[q].

Subpackages by layer: qpoly (exact polynomial arithmetic), pathword
(lattice words, heights and sign classes), linkflip (arc pairings, flips,
and link patterns), incidence (signed transition matrices and their
inverses), tiling (regions, tilings of the three families, generating
functions, projections), treeform (decorated plane trees and the
rewriting map that factorizes lower generating functions), cli
(command line front end).
"""

__version__ = "0.1.0"
