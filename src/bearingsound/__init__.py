"""Airborne bearing-fault detection: cepstral features, an MLP classifier,
and a synthetic vibroacoustic campaign generator with evaluation tooling."""

__version__ = "0.1.0"
