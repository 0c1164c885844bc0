"""Concrete realization of osp(1|2n) and its lowest-weight Verma modules.

The package re-exports nothing, so importing one submodule loads only what
that submodule needs: import from ``ospuir.enveloping.algebra``,
``.ordering``, ``.module`` or ``.singular``.
"""
