"""Error exponents of AWGN communication with noisy AWGN feedback.

The package has two halves.  The analytical half computes classical
no-feedback exponents (sphere packing, random coding, expurgation), the
unconstrained-lattice exponent, and the achievable exponent of an interactive
feedback scheme, together with its high-SNR closed forms.  The simulation
half runs the scheme itself: modulo-lattice feedback transport over a noisy
backward link, coupled against an idealized twin to isolate aliasing events.
"""

from . import exponents, feedback, jscc, lattices, sim
from .exponents import *
from .feedback import *
from .jscc import *
from .lattices import *
from .sim import *

__version__ = "0.1.0"

# each module's own __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += exponents.__all__
__all__ += feedback.__all__
__all__ += jscc.__all__
__all__ += lattices.__all__
__all__ += sim.__all__
