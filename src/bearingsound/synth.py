"""Synthetic airborne bearing-sound generator.

A recording is the sum of three parts: harmonics of the shaft rotational
frequency (with random phases), broadband Gaussian noise, and, for a damaged
bearing, a train of impacts. Each impact excites an exponentially decaying
structural resonance; impact repetition follows the characteristic fault
frequency, a fixed multiple of the shaft frequency. Inner-ring trains, and
only they, are amplitude-modulated by the shaft rotation (the defect moves
through the load zone once per revolution): the fault kind alone decides.

The harmonic sum calls no sin or cos per sample: the channel's Taylor
tables, built once per recording, hold the sum and its derivatives at a grid
of shaft angles, and each sample gathers its grid point's row and evaluates
it as a polynomial in the angle's remainder. One recursion, run in blocks,
adds every impact's resonance to the end of the recording at any decay.

A scenario lists a campaign's channels, each a ``ChannelSpec``: its id, its
manifest record (``common.ManifestEntry``) and its ``SynthConfig``. A
recording depends only on its own config, so ``cli`` writes the channels on
worker threads and the bytes are the same for any worker count.

Everything is deterministic given the config seed: the harmonic-phase, noise
and fault randomness come from three independent child streams, so a healthy
and a damaged recording that share a seed differ exactly by the injected
impact component.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .audiofile import FRAME_SAMPLES, AudioRecording
from .common import MANIFEST_KEYS, ManifestEntry, manifest_entry, read_json
from .errors import ConfigError, DataError

OUTER_RING = "outer_ring"
INNER_RING = "inner_ring"


@dataclass(frozen=True)
class FaultSpec:
    """One localized raceway fault; its fields are a scenario fault's keys."""

    kind: str
    freq_ratio: float
    amplitude: float
    resonance_freq: float
    resonance_decay: float
    jitter: float = 0.0

    def __post_init__(self):
        _set_floats(self)
        if self.kind not in (OUTER_RING, INNER_RING):
            raise ConfigError(f"unknown fault kind: {self.kind!r}")
        for name in ("freq_ratio", "resonance_decay"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.resonance_freq)):
            raise ConfigError("amplitude and resonance_freq must be finite")
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigError("jitter must be in [0, 1)")


@dataclass(frozen=True, kw_only=True)
class SynthConfig:
    """One synthetic channel; its fields are a scenario channel's other keys."""

    fs: float = 25600.0
    duration: float
    seed: int
    profile: tuple
    harmonics: tuple = ((1, 1.0),)
    noise_level: float = 0.0
    fault: FaultSpec | None = None

    def __post_init__(self):
        _set_floats(self)
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.fs < math.inf:
            raise ConfigError("fs must be positive and finite")
        # A 16-bit WAV header states whole Hz, and twice that (its byte rate) in 32 bits.
        if not (self.fs.is_integer() and self.fs < 1 << 31):
            raise ConfigError(f"fs: {self.fs!r} is not a whole number of Hz below 2^31")
        if not 0 < self.duration < math.inf:
            raise ConfigError("duration must be positive and finite")
        profile = tuple((float(t), float(f)) for t, f in self.profile)
        if not profile:
            raise ConfigError("profile must not be empty")
        times = [t for t, _ in profile]
        if not np.isfinite(times).all() or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("profile breakpoint times must be finite and strictly increasing")
        if not all(0 < f < math.inf for _, f in profile):
            raise ConfigError("rotational frequency must stay positive and finite")
        object.__setattr__(self, "profile", profile)
        harmonics = tuple((_integer("harmonics", h), float(a))
                          for h, a in self.harmonics)
        if any(h <= 0 for h, _ in harmonics):
            raise ConfigError("harmonic numbers must be positive")
        if not all(0 <= a < math.inf for _, a in harmonics):
            raise ConfigError("harmonic amplitudes must be non-negative and finite")
        object.__setattr__(self, "harmonics", harmonics)
        # A harmonic at or above fs/2 would alias.
        top = max((h for h, _ in harmonics), default=0)
        fastest = max(f for _, f in profile)
        if top * fastest >= self.fs / 2:
            raise ConfigError(f"harmonic {top} of the {fastest} Hz shaft speed "
                              f"is at or above fs/2 = {self.fs / 2} Hz")
        # Bounds the Taylor tables (131072 points per turn) on a slow shaft.
        if top > 1 << 15:
            raise ConfigError(f"harmonic {top} is above 32768, the tables' limit")
        if not 0 <= self.noise_level < math.inf:
            raise ConfigError("noise_level must be non-negative and finite")
        if self.fault is not None and self.fault.resonance_freq >= self.fs / 2:
            raise ConfigError("resonance_freq must be below fs/2")
        # Below fs/2 a sample crosses at most one turn of the impact train.
        if self.fault is not None and self.fault.freq_ratio * fastest >= self.fs / 2:
            raise ConfigError(f"fault rate {self.fault.freq_ratio} x {fastest} Hz "
                              f"is at or above fs/2 = {self.fs / 2} Hz")


def _set_floats(config) -> None:
    """Make each field annotated float a float: an int gave integer arrays."""
    for field in fields(config):
        if field.type == "float":
            object.__setattr__(config, field.name, float(getattr(config, field.name)))


def _integer(key: str, value) -> int:
    """value as an int; int() alone would truncate 2.9 and read a bool as 0 or 1."""
    if ((isinstance(value, (int, np.integer)) and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer())):
        return int(value)
    raise ConfigError(f"{key}: {value!r} is not an integer")


def sample_profile(profile, t: np.ndarray) -> np.ndarray:
    """Piecewise-linear rotational frequency at times t (clamped at the ends)."""
    times, freqs = np.array(profile, dtype=float).T
    return np.interp(t, times, freqs)


# Samples per block of every full-length pass: the time axis, the profile,
# the running sum and the noise. A multiple of FRAME_SAMPLES, so each block
# holds whole track frames. Each numpy call on a channel worker hands the GIL
# on, so blocks this large keep the calls few.
_STREAM_BLOCK = 1 << 17


def _shaft_revolutions(config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame mean rotational frequency (the track) and the running
    integral of the sampled frequency (revolutions), built block by block.

    The running sum is carried into each block's first element before its
    np.cumsum, so revs equals one sequential sum over the whole recording.
    """
    n = int(round(config.duration * config.fs))
    revs = np.empty(n)
    track = np.empty(n // FRAME_SAMPLES)
    carry = 0.0
    for start in range(0, n, _STREAM_BLOCK):
        block = revs[start : start + _STREAM_BLOCK]
        t = np.arange(start, start + len(block), dtype=float)
        t /= config.fs
        freq = sample_profile(config.profile, t)
        frames = len(block) // FRAME_SAMPLES
        first = start // FRAME_SAMPLES
        track[first : first + frames] = (
            freq[: frames * FRAME_SAMPLES].reshape(frames, FRAME_SAMPLES).mean(axis=1))
        freq[0] += carry
        np.cumsum(freq, out=block)
        carry = block[-1]
        block /= config.fs
    return track, revs


# Impact strength drifts between contact regimes on a seconds scale: it holds
# a level for _SEVERITY_BLOCK_S, usually in a strong regime, and occasionally
# (probability _QUIET_SPELL_PROB per block) drops to its weakest level, the
# way an incipient defect goes quiet when it leaves the load path.
_SEVERITY_BLOCK_S = 2.0
_QUIET_SPELL_PROB = 0.1
_STRONG_REGIME_LOW = -0.3


def _fault_impulses(config: SynthConfig, revs: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample indices and amplitudes of the impact train.

    jitter scales every randomization: per-impact timing, the
    per-impact amplitude scatter, and the depth of the slow regime drift.
    """
    fault = config.fault
    # Impact k lands on the first sample at or past k / ratio revolutions; the
    # last sample, past all `turns` of them, takes those no earlier one does.
    ratio = fault.freq_ratio
    turns = math.floor(ratio * revs[-1]) if len(revs) else 0
    indices = np.searchsorted(revs[:-1], np.arange(1, turns + 1) / ratio)
    amps = np.full(indices.size, fault.amplitude)
    jitter = fault.jitter
    if jitter > 0:
        # The profile at the impact times: the values _shaft_revolutions
        # sampled there, without keeping its full-length array alive.
        freq = sample_profile(config.profile, indices / config.fs)
        period = config.fs / (fault.freq_ratio * freq)
        shift = np.rint(jitter * period
                        * rng.uniform(-1.0, 1.0, size=indices.size)).astype(int)
        indices = np.clip(indices + shift, 0, len(revs) - 1)
        num_blocks = int(np.ceil(config.duration / _SEVERITY_BLOCK_S)) + 1
        quiet = rng.uniform(size=num_blocks) < _QUIET_SPELL_PROB
        levels = rng.uniform(_STRONG_REGIME_LOW, 1.0, size=num_blocks)
        levels[quiet] = -1.0
        block_of = np.minimum((indices / (config.fs * _SEVERITY_BLOCK_S)).astype(int),
                              num_blocks - 1)
        amps *= 1.0 + jitter * levels[block_of]
        amps *= 1.0 + (jitter / 3.0) * rng.uniform(-1.0, 1.0, size=indices.size)
    if fault.kind == INNER_RING:
        amps *= 1.0 + np.cos(2.0 * np.pi * revs[indices])
    return indices, amps


def _child_rngs(seed: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(3)
    return [np.random.default_rng(c) for c in children]


# Samples per block of the harmonic sum. A block's remainder, table index
# and term arrays fit a core's L2 cache with the Taylor tables. Smaller blocks
# cost more than they save: each numpy call hands the GIL to the other
# channel workers. Six 170 s channels took 1.27 / 1.01 / 0.88 / 0.87 / 1.06 s
# to synthesize and write on two threads at 2^13 / 2^14 / 2^15 / 2^16 / 2^17.
_HARMONIC_BLOCK = 1 << 15

# Least grid points per turn of the Taylor tables, and the truncation error
# their terms leave, relative to the sum of the amplitudes.
_TABLE_SIZE = 4096
_TAYLOR_TOLERANCE = 2.0**-60
_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _taylor_tables(weights: dict, size: int) -> np.ndarray:
    """Row k holds A_k[j] = Re sum_h w_h (ih)^k / k! T[h*j mod size], with
    T[j] = exp(2*pi*i*j/size) rounded from long double, for k = 0..K.

    sum_k A_k[j] r^k is the sum at angle 2*pi*j/size + r. K is the least
    order whose remainder for |r| <= pi/size, at most x^(K+1)/(K+1)! of the
    sum of the amplitudes with x = pi*top/size, is within
    _TAYLOR_TOLERANCE."""
    x = np.pi * max(weights) / size
    order = 0
    while x ** (order + 1) / math.factorial(order + 1) > _TAYLOR_TOLERANCE:
        order += 1
    angles = np.arange(size, dtype=np.longdouble) * (_TWO_PI / size)
    cos_t, sin_t = np.cos(angles).astype(float), np.sin(angles).astype(float)
    grid = np.arange(size)
    tables = np.zeros((order + 1, size))
    for h, w in weights.items():
        at = (h * grid) & (size - 1)
        tr, ti = cos_t[at], sin_t[at]
        for k in range(order + 1):
            tables[k] += w.real * tr - w.imag * ti
            w *= 1j * h / (k + 1)
    return tables


def _harmonic_sum(harmonics, revs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sum of amp*sin(h*theta + phase), theta = 2*pi*revs, over (h, amp) in
    harmonics, written over revs (each block is read before it is
    overwritten) and returned.

    The sum is s(theta) = Re(sum_h w_h*exp(i*h*theta)), with w_h =
    amp*sin(phase) - i*amp*cos(phase) summed over the entries of h; one
    phase is drawn per entry in order, zero amplitudes too. The angle is
    reduced in turns, exactly at any length: x = revs*size is exact (size is
    a power of two), k = rint(x) gives grid point j = k mod size, and
    r = (x - k)*2*pi/size; s is the Taylor polynomial in r of
    ``_taylor_tables`` row j. size grows with the top harmonic so that
    top*|r| stays within pi/4."""
    weights: dict[int, complex] = {}
    for h, amp in harmonics:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if amp > 0:
            weights[h] = weights.get(h, 0j) + complex(amp * np.sin(phase),
                                                      -amp * np.cos(phase))
    if not weights:
        revs.fill(0.0)
        return revs
    size = max(_TABLE_SIZE, 4 << (max(weights) - 1).bit_length())
    tables = _taylor_tables(weights, size)
    step = float(_TWO_PI / size)
    angle = np.empty(min(len(revs), _HARMONIC_BLOCK))
    term = np.empty_like(angle)
    index = np.empty(len(angle), dtype=np.intp)
    for start in range(0, len(revs), _HARMONIC_BLOCK):
        out = revs[start : start + _HARMONIC_BLOCK]
        m = len(out)
        r, t, j = angle[:m], term[:m], index[:m]
        np.multiply(out, size, out=r)
        np.rint(r, out=t)
        j[...] = t
        j &= size - 1
        r -= t
        r *= step
        np.take(tables[-1], j, out=out, mode="clip")
        for table in tables[-2::-1]:
            out *= r
            np.take(table, j, out=t, mode="clip")
            out += t
    return revs


# Samples per block of the resonance recursion. A block spans at most
# _RESONANCE_SPANS falls of the resonance by 80 dB, so |a|^-k stays below 1e128.
_RESONANCE_BLOCK = 1 << 13
_RESONANCE_SPANS = 32


def _add_resonances(signal: np.ndarray, indices: np.ndarray, amps: np.ndarray,
                    fault: FaultSpec, fs: float) -> None:
    """Add each impact's resonance amp*Im(a^k), a = exp((2*pi*i*resonance_freq
    - resonance_decay)/fs), k samples after it to the end of signal: the
    recursion z[m] = a*z[m-1] + x[m] over impacts x, per block from sample m0
    z = a^k*(a*z[m0-1] + cumsum(x*a^-k)), k = m - m0, with a^k and a^-k
    rounded from long double. A resonance that falls 80 dB within one sample
    adds nothing (its response is sin 0 = 0)."""
    spans = fs * math.log(1e4) / fault.resonance_decay
    if spans <= 1:
        return
    block = int(min(_RESONANCE_BLOCK, _RESONANCE_SPANS * spans))
    k = np.arange(block, dtype=np.longdouble)
    step = np.longdouble(-fault.resonance_decay) / fs + 1j * (_TWO_PI * fault.resonance_freq / fs)
    power, inverse = np.exp(k * step).astype(complex), np.exp(-k * step).astype(complex)
    order = np.argsort(indices, kind="stable")
    indices, amps = indices[order], amps[order]
    starts = range(indices[0], len(signal), block)
    bounds = np.searchsorted(indices, [*starts, len(signal)])
    z, carry = np.empty(block, complex), 0j
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        zb, at = z[: len(signal) - start], indices[lo:hi] - start
        zb.fill(0.0)
        np.add.at(zb, at, amps[lo:hi] * inverse[at])
        zb[0] += carry
        np.cumsum(zb, out=zb)
        zb *= power[: len(zb)]
        signal[start : start + len(zb)] += zb.imag
        carry = zb[-1] * power[1]


def synth_recording(config: SynthConfig, channel_id: str = "synth") -> AudioRecording:
    """Generate one channel; deterministic given config (including seed).

    Peak memory is about one float64 array of the recording's length: the
    revolutions are overwritten by the signal, block by block.
    """
    rng_phase, rng_noise, rng_fault = _child_rngs(config.seed)
    track, revs = _shaft_revolutions(config)
    n = len(revs)

    # The impact search reads revs before the harmonic sum overwrites it; the
    # three rng streams are independent.
    if config.fault is not None:
        indices, amps = _fault_impulses(config, revs, rng_fault)

    signal = _harmonic_sum(config.harmonics, revs, rng_phase)

    if config.noise_level > 0:
        # Drawn block by block into one buffer: the same stream as one
        # standard_normal(n) draw, without a second full-length array.
        noise = np.empty(min(n, _STREAM_BLOCK))
        for start in range(0, n, _STREAM_BLOCK):
            block = noise[: min(_STREAM_BLOCK, n - start)]
            rng_noise.standard_normal(out=block)
            block *= config.noise_level
            signal[start : start + len(block)] += block

    if config.fault is not None and indices.size:
        _add_resonances(signal, indices, amps, config.fault, config.fs)

    return AudioRecording(samples=signal, fs=config.fs, channel_id=channel_id,
                          rotational_freq_track=track)


# --- campaign scenarios ----------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """One channel of a measurement campaign: its id, its manifest record and
    its generator."""

    channel_id: str
    entry: ManifestEntry
    config: SynthConfig


CAMPAIGN_DURATION_S = 600.0

_BASE_HARMONICS = ((1, 1.00), (2, 0.55), (3, 0.40), (4, 0.28),
                   (5, 0.20), (6, 0.14), (7, 0.10), (8, 0.07))
_NOISE_LEVEL = 0.35

# (channel, label, axle, component, description, fault kind or None, freq_ratio,
#  impact-to-harmonic power in dB, resonance_freq, resonance_decay, jitter)
_DEFAULT_CHANNELS = (
    ("A1_b1", "D", "A1", "motor", "inner ring pitting, very early stage",
     INNER_RING, 5.4, -8.0, 4300.0, 900.0, 0.75),
    ("A2_b2", "D", "A2", "motor", "outer ring fatigue, developed stage",
     OUTER_RING, 3.5, -4.0, 4000.0, 900.0, 0.1),
    ("A2_b3", "D", "A2", "gearbox", "outer ring fatigue, developed stage",
     OUTER_RING, 3.5, 0.0, 3000.0, 700.0, 0.1),
    ("B1_b1", "H", "B1", "motor", "healthy reference", None, 0, 0, 0, 0, 0),
    ("B2_b2", "H", "B2", "motor", "healthy reference", None, 0, 0, 0, 0, 0),
    ("B2_b3", "H", "B2", "gearbox", "healthy reference", None, 0, 0, 0, 0, 0),
)


def _default_profile(duration: float, index: int) -> tuple:
    """Mostly constant shaft speed inside 42-45 Hz with one deceleration dip.

    The dip leaves the gating band, so every recording contributes both kept
    and rejected frames.
    """
    hold_a = 43.0 + 0.12 * index
    hold_b = 44.2 - 0.10 * index
    t1 = 0.56 * duration
    t2 = t1 + 0.04 * duration
    t3 = t2 + 0.06 * duration
    t4 = t3 + 0.04 * duration
    return ((0.0, hold_a), (t1, hold_a), (t2, 33.0), (t3, 33.0), (t4, hold_b))


def _channel_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def impulse_amplitude_for_power(power_db: float, config: SynthConfig) -> float:
    """Impact amplitude that puts the mean power of the impact train of config,
    a checked faulted channel, at power_db relative to its harmonics."""
    fault = config.fault
    harmonic_ms = 0.5 * sum(a * a for _, a in config.harmonics)
    t = np.linspace(0.0, config.duration, 512)
    mean_fr = float(np.mean(sample_profile(config.profile, t)))
    # Resonance energy over the recording: sum over k < n of (|a|^2k - Re a^2k)/2.
    n = int(round(config.duration * config.fs))
    step = 2.0 * complex(-fault.resonance_decay, 2.0 * np.pi * fault.resonance_freq) / config.fs
    kernel_energy = 0.5 * float(np.expm1(n * step.real) / np.expm1(step.real)
                                - (np.expm1(n * step) / np.expm1(step)).real)
    rate = fault.freq_ratio * mean_fr
    modulation_ms = 1.5 if fault.kind == INNER_RING else 1.0
    target_ms = harmonic_ms * 10.0 ** (power_db / 10.0)
    return float(np.sqrt(target_ms * config.fs / (rate * kernel_energy * modulation_ms)))


def default_scenario(seed: int, duration: float = CAMPAIGN_DURATION_S,
                     fs: float = SynthConfig.fs) -> list[ChannelSpec]:
    """Six-channel campaign: three damaged bearings (inner-ring motor,
    outer-ring motor, outer-ring gearbox) and their healthy references, built
    by ``channel_from_json``; each fault is checked at amplitude 1 first."""
    channels = []
    for index, row in enumerate(_DEFAULT_CHANNELS):
        (channel_id, label, axle, component, description,
         kind, ratio, db, res_f, decay, jitter) = row
        channel_rng = np.random.default_rng(np.random.SeedSequence([seed, 977, index]))
        fault = None if kind is None else {
            "kind": kind, "freq_ratio": ratio, "amplitude": 1.0,
            "resonance_freq": res_f, "resonance_decay": decay, "jitter": jitter}
        entry = {
            "channel": channel_id, "label": label, "axle": axle,
            "component": component, "description": description,
            "seed": _channel_seed(seed, index), "fs": fs, "duration": duration,
            "profile": _default_profile(duration, index),
            "harmonics": [(h, a * channel_rng.uniform(0.97, 1.03)) for h, a in _BASE_HARMONICS],
            "noise_level": _NOISE_LEVEL, "fault": fault}
        if fault is not None:
            fault["amplitude"] = impulse_amplitude_for_power(db, channel_from_json(entry).config)
        channels.append(channel_from_json(entry))
    return channels


def _from_keys(cls, what: str, given: dict):
    """cls(**given); a key of given that is not a field of cls, or a field
    without a default that given lacks, is a DataError naming it."""
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for problem, keys in (("unknown", given.keys() - names), ("missing", required - given.keys())):
        if keys:
            raise DataError(f"{problem} {what} keys: {', '.join(sorted(keys))}")
    return cls(**given)


def channel_from_json(entry: dict) -> ChannelSpec:
    """A scenario's channel object as a ChannelSpec. Its keys are channel, the
    ``ManifestEntry`` fields but file (the WAV is <channel>.wav) and the
    ``SynthConfig`` fields; fault is null or an object of ``FaultSpec``'s.
    profile is [[t, hz], ...] and harmonics [[h, amp], ...]."""
    config = {**entry}
    channel_id = str(config.pop("channel"))
    record = {key: config.pop(key) for key in (MANIFEST_KEYS - {"file"}) & config.keys()}
    if (fault := config.get("fault")) is not None:
        if not isinstance(fault, dict):
            raise DataError(f"fault must be null or an object, got {fault!r}")
        config["fault"] = _from_keys(FaultSpec, "fault", fault)
    config = _from_keys(SynthConfig, "channel", config)
    # A shorter recording has no frame, so no .rot entry to extract.
    if round(config.duration * config.fs) < FRAME_SAMPLES:
        raise DataError(f"{channel_id}: shorter than one {FRAME_SAMPLES}-sample frame")
    return ChannelSpec(channel_id, manifest_entry(
        channel_id, {**record, "file": f"{channel_id}.wav"}), config)


def scenario_from_json(path) -> list[ChannelSpec]:
    """A campaign from a JSON file: a list of ``channel_from_json`` objects.
    An unknown key, a missing one that has no default, or a number that is
    not finite is a DataError."""
    path = Path(path)
    raw = read_json(path, "scenario file")
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON list of channels")
    channels = []
    for entry in raw:
        try:
            channels.append(channel_from_json(entry))
        except (AttributeError, ConfigError, DataError, KeyError, OverflowError,
                TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad channel entry ({exc})") from exc
    return channels
