"""Exact probabilistic-generation analysis of finite groups."""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    DegreeMismatch,
    EmptySet,
    GroupError,
    NotInGroup,
    NotNormal,
    ParseError,
    UnknownName,
)
from .group import ElementSet, FiniteGroup, direct_product, parse_group_spec
from .perm import Permutation

__all__ = [
    "Permutation",
    "FiniteGroup",
    "ElementSet",
    "direct_product",
    "parse_group_spec",
    "GroupError",
    "DegreeMismatch",
    "CapExceeded",
    "NotInGroup",
    "NotNormal",
    "EmptySet",
    "UnknownName",
    "ParseError",
    "__version__",
]
