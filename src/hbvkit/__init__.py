"""Within-host HBV dynamics: simulation, equilibria, stability, pullback.

The package exports exactly the names in its modules' ``__all__`` lists."""

from .equilibria import *
from .integrate import *
from .model import *
from .process import *
from .scenarios import *
from .stability import *

__version__ = "0.1.0"
