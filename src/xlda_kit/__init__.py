"""Cross-lingual document packing and attention masking toolkit.

Library layout:

* ``corpus`` — record ingestion and corpus statistics
* ``quality`` — quantile quality filtering
* ``sampling`` — language sampling distribution, share normalisation, constraint flags
* ``packing`` — fixed-length sequence packing with span metadata and labels
* ``masks`` — attention-mask policies over packed spans
* ``schedule`` — WSD learning rate, batch ramp, scaling-law advisors
* ``model`` / ``training`` — reference transformer, training loop, transfer probe
* ``consistency`` — cross-lingual prediction-consistency metrics
* ``cli`` — the ``xlda-kit`` command
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    ConstraintInfeasibleError,
    DataError,
    TrainingDivergedError,
    XldaKitError,
)
