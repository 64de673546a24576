"""The names a design point may give its allocators.

One home for the lists, importing nothing: :mod:`repro.core` builds
allocators from these names, and
:func:`repro.netsim.config.validate_config` checks a config against
them without loading the allocator core.
"""

SWITCH_ALLOCATOR_ARCHS = ("sep_if", "sep_of", "wf")
VC_ALLOCATOR_ARCHS = ("sep_if", "sep_of", "wf")
#: round-robin, matrix, static priority
ARBITER_KINDS = ("rr", "m", "fixed")
SPECULATION_SCHEMES = ("nonspec", "conventional", "pessimistic")
