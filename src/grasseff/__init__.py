"""Exact-arithmetic Schubert calculus and effective cones on blow-ups of Grassmannians.

Everything here is integer or rational arithmetic; there is no floating
point anywhere in the library.
"""
