"""Airborne bearing-fault detection: cepstral features, an MLP classifier,
and a synthetic vibroacoustic campaign generator with evaluation tooling."""

from .dsp import (MelFilterbank, MfccConfig, build_filterbank,
                  filterbank_energies, mfcc, power_spectrum)
from .errors import (ConfigError, DataError, FormatError, NumericError,
                     PipelineError)
from .synth import (AudioRecording, ChannelSpec, FaultSpec, SynthConfig,
                    default_scenario, synth_campaign, synth_recording)

__all__ = [
    "AudioRecording", "ChannelSpec", "ConfigError", "DataError", "FaultSpec",
    "FormatError", "MelFilterbank", "MfccConfig", "NumericError",
    "PipelineError", "SynthConfig", "build_filterbank", "default_scenario",
    "filterbank_energies", "mfcc", "power_spectrum", "synth_campaign",
    "synth_recording",
]

__version__ = "0.1.0"
