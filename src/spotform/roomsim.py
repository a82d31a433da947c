"""2-D image-method room simulator.

Rooms are rectangles with frequency-independent wall reflection.  Impulse
responses are built from mirror images with cylindrical (1/sqrt(r)) spreading
and an 81-tap windowed-sinc fractional-delay kernel per image.  The wall
reflection coefficient is calibrated by bisection so that the Schroeder
backward-integration estimate of T60 matches the requested value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from spotform.signal import Waveform, next_fast_len

_KERNEL_HALF = 40  # fractional-delay sinc support: +-40 taps


@dataclass(frozen=True)
class MicArray:
    """Uniform linear array: mics broadside to the look direction.

    `look` is the beamformer steering direction in radians; the array axis is
    perpendicular to it so the target sits broadside.
    """

    center: tuple[float, float]
    look: float
    n_mics: int = 3
    spacing: float = 0.0283

    def mic_positions(self) -> np.ndarray:
        """(n_mics, 2) coordinates; mic 0 is the reference."""
        axis = np.array([math.cos(self.look + math.pi / 2),
                         math.sin(self.look + math.pi / 2)])
        offsets = (np.arange(self.n_mics) - (self.n_mics - 1) / 2) * self.spacing
        return np.asarray(self.center)[None, :] + offsets[:, None] * axis[None, :]


@dataclass(frozen=True)
class SourcePlacement:
    position: tuple[float, float]
    kind: str = "interferer"  # "target" or "interferer"

    def __post_init__(self):
        if self.kind not in ("target", "interferer"):
            raise ValueError(f"unknown source kind: {self.kind!r}")


@dataclass(frozen=True)
class Scene:
    """Room geometry, arrays, sources, and acoustic parameters."""

    room: tuple[float, float] = (6.0, 6.0)
    arrays: tuple[MicArray, ...] = ()
    sources: tuple[SourcePlacement, ...] = ()
    t60: float = 0.3
    sample_rate: int = 16000
    speed_of_sound: float = 343.0

    def __post_init__(self):
        lx, ly = self.room
        if not (math.isfinite(lx) and math.isfinite(ly)):
            raise ValueError("room sides must be finite")
        if lx <= 0 or ly <= 0:
            raise ValueError("degenerate geometry: room sides must be positive")
        if not (math.isfinite(self.t60) and self.t60 >= 0):
            raise ValueError("t60 must be finite and nonnegative")
        if not math.isfinite(self.speed_of_sound):
            raise ValueError("speed_of_sound must be finite")
        if self.sample_rate <= 0 or self.speed_of_sound <= 0:
            raise ValueError("sample_rate and speed_of_sound must be positive")
        if not self.arrays:
            raise ValueError("degenerate geometry: scene has no arrays")
        if sum(s.kind == "target" for s in self.sources) != 1:
            raise ValueError("scene must contain exactly one target source")
        pts = [("source", np.asarray(s.position)) for s in self.sources]
        for a, arr in enumerate(self.arrays):
            if arr.n_mics < 1 or (arr.n_mics > 1 and arr.spacing <= 0):
                raise ValueError("degenerate geometry: bad array layout")
            for m, p in enumerate(arr.mic_positions()):
                pts.append((f"array {a} mic {m}", p))
        for name, p in pts:
            if not (0 < p[0] < lx and 0 < p[1] < ly):
                raise ValueError(f"degenerate geometry: {name} outside room")
        mics = np.concatenate([a.mic_positions() for a in self.arrays])
        for s in self.sources:
            d = np.linalg.norm(mics - np.asarray(s.position)[None, :], axis=1)
            if np.min(d) < 1e-6:
                raise ValueError("degenerate geometry: source coincides with a mic")

    @property
    def n_arrays(self) -> int:
        return len(self.arrays)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def target_index(self) -> int:
        return next(i for i, s in enumerate(self.sources) if s.kind == "target")

    def to_dict(self) -> dict:
        """`asdict` in the shape JSON reads back: tuples become lists."""
        return json.loads(json.dumps(asdict(self)))


def default_scene(n_arrays: int = 2, t60: float = 0.3) -> Scene:
    """Square 6 m room, target at the center, one in-line interferer per array.

    Each interferer stands 1.5 m behind the target along one array's look
    direction, so no single array can separate it from the target by steering
    alone.  The scene keeps the `Scene` default rate of 16 kHz.
    """
    if n_arrays not in (1, 2, 3):
        raise ValueError("default_scene supports 1 to 3 arrays")
    target = np.array([3.0, 3.0])
    layouts = [((0.3, 3.0), 0.0), ((3.0, 0.3), math.pi / 2), ((5.7, 3.0), math.pi)]
    arrays, sources = [], [SourcePlacement(position=(3.0, 3.0), kind="target")]
    for center, look in layouts[:n_arrays]:
        arrays.append(MicArray(center=center, look=look))
        pos = target + 1.5 * np.array([math.cos(look), math.sin(look)])
        sources.append(SourcePlacement(position=(round(pos[0], 9), round(pos[1], 9))))
    return Scene(arrays=tuple(arrays), sources=tuple(sources), t60=t60)


@dataclass
class RirSet:
    """Impulse responses for every (array, mic, source) triple.

    taps has shape (n_arrays, n_mics, n_sources, n_taps).
    """

    taps: np.ndarray
    sample_rate: int
    scene: Scene
    reflection: float = 0.0

    @property
    def n_taps(self) -> int:
        return self.taps.shape[-1]


@dataclass
class ObservationTensor:
    """Rendered mic signals: the mixture and the per-source images.

    mixture: (n_arrays, n_mics, n_samples); images adds a leading source axis.
    """

    mixture: np.ndarray
    images: np.ndarray
    sample_rate: int
    scene: Scene

    @property
    def n_samples(self) -> int:
        return self.mixture.shape[-1]


def _frac_delay_kernel(delays: np.ndarray, amps: np.ndarray,
                       n_taps: int) -> np.ndarray:
    """Accumulate amps[i] * sinc(n - delays[i]) (Hann-windowed) into a filter."""
    h = np.zeros(n_taps)
    keep = delays < n_taps + _KERNEL_HALF
    delays, amps = delays[keep], amps[keep]
    if delays.size == 0:
        return h
    center = np.round(delays)
    base = center[:, None] + np.arange(-_KERNEL_HALF, _KERNEL_HALF + 1)[None, :]
    x = base - delays[:, None]
    win = 0.5 * (1.0 + np.cos(np.pi * x / (_KERNEL_HALF + 1)))
    kern = amps[:, None] * win * np.sinc(x)
    valid = (base >= 0) & (base < n_taps)
    np.add.at(h, base[valid].astype(np.intp), kern[valid])
    return h


def _image_rir(mic: np.ndarray, src: np.ndarray, room: tuple[float, float],
               rho: float, order: int, n_taps: int, fs: int, c: float) -> np.ndarray:
    """One impulse response by the 2-D mirror-image method.

    Image positions follow (1-2p)(s + 2rL) per axis with per-axis amplitude
    rho^(|r+p| + |r|); propagation applies 1/sqrt(r) spreading.
    """
    r = np.arange(-order, order + 1)
    coords, gains = [], []
    for axis in range(2):
        s, L = src[axis], room[axis]
        pos = np.concatenate([s + 2 * r * L, -(s + 2 * r * L)])
        exp = np.concatenate([2 * np.abs(r), np.abs(r + 1) + np.abs(r)])
        coords.append(pos)
        gains.append(rho ** exp if rho > 0 else (exp == 0).astype(float))
    px, py = np.meshgrid(coords[0], coords[1], indexing="ij")
    gx, gy = np.meshgrid(gains[0], gains[1], indexing="ij")
    dist = np.hypot(px - mic[0], py - mic[1]).ravel()
    amp = (gx * gy).ravel()
    live = amp > 1e-10
    dist, amp = dist[live], amp[live]
    min_dist = c / fs  # clamp to one sample of travel to avoid blowup
    amp = amp / np.sqrt(np.maximum(dist, min_dist))
    return _frac_delay_kernel(dist / c * fs, amp, n_taps)


def _schroeder_t60(h: np.ndarray, fs: int) -> float:
    """T60 from the -5..-25 dB slope of the backward-integrated energy curve."""
    edc = np.cumsum((h**2)[::-1])[::-1]
    if edc[0] <= 0:
        return 0.0
    db = 10.0 * np.log10(edc / edc[0] + 1e-300)
    i5 = int(np.argmax(db <= -5.0))
    if db[i5] > -5.0:
        return math.inf
    i25 = int(np.argmax(db <= -25.0))
    if db[i25] > -25.0:
        return math.inf
    if i25 <= i5 + 1:
        return 0.0
    t = np.arange(i5, i25 + 1) / fs
    slope = np.polyfit(t, db[i5 : i25 + 1], 1)[0]
    return -60.0 / slope if slope < 0 else math.inf


def _calibration_pair(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    mic = scene.arrays[0].mic_positions()[0]
    src = np.asarray(scene.sources[scene.target_index].position, dtype=float)
    return mic, src


def simulate_rirs(scene: Scene) -> RirSet:
    """Generate image-method RIRs for every (array, mic, source) triple.

    For t60 > 0 the wall reflection coefficient is bisected until the
    Schroeder estimate on a probe response lands within 2% of the request.
    """
    fs, c = scene.sample_rate, scene.speed_of_sound
    mics = [a.mic_positions() for a in scene.arrays]
    srcs = [np.asarray(s.position, dtype=float) for s in scene.sources]
    dmax = max(
        float(np.linalg.norm(m - s))
        for pos in mics for m in pos for s in srcs
    )
    if scene.t60 == 0.0:
        order, rho = 0, 0.0
        n_taps = int(math.ceil(fs * dmax / c)) + 2 * _KERNEL_HALF + 2
    else:
        order = int(math.ceil(c * scene.t60 / min(scene.room))) + 3
        if order > 200:
            raise ValueError(
                "t60 unreachable: requested decay needs image order "
                f"{order} for this room size"
            )
        n_taps = int(math.ceil(fs * (1.2 * scene.t60 + dmax / c))) + 2 * _KERNEL_HALF + 2
        mic0, src0 = _calibration_pair(scene)

        def probe(r):
            return _schroeder_t60(
                _image_rir(mic0, src0, scene.room, r, order, n_taps, fs, c), fs
            )

        lo, hi = 0.02, 0.999
        if probe(hi) < scene.t60:
            raise ValueError("t60 unreachable: room too small for requested decay")
        if probe(lo) > scene.t60:
            lo = 1e-4
        rho = est = None
        for _ in range(60):
            rho = 0.5 * (lo + hi)
            est = probe(rho)
            if est > scene.t60:
                hi = rho
            else:
                lo = rho
            if est < math.inf and abs(est - scene.t60) <= 0.02 * scene.t60:
                break
        if not (abs(est - scene.t60) <= 0.05 * scene.t60):
            # est(rho) jumps discontinuously when reflections are sparse
            raise ValueError(
                "t60 unreachable: reflections too sparse to calibrate the "
                "requested decay in this room"
            )
    A = scene.n_arrays
    M = max(a.n_mics for a in scene.arrays)
    if any(a.n_mics != M for a in scene.arrays):
        raise ValueError("degenerate geometry: arrays must have equal mic counts")
    taps = np.zeros((A, M, scene.n_sources, n_taps))
    for a in range(A):
        for m in range(M):
            for s in range(scene.n_sources):
                taps[a, m, s] = _image_rir(
                    mics[a][m], srcs[s], scene.room, rho, order, n_taps, fs, c
                )
    return RirSet(taps=taps, sample_rate=fs, scene=scene, reflection=rho)


def render_observations(sources: list[Waveform], rirs: RirSet) -> ObservationTensor:
    """Convolve each dry source with its RIRs and sum into mic mixtures.

    Each image is the full linear convolution done the way
    `scipy.signal.fftconvolve` does it, at its FFT size and in its operand
    order, with each source transformed once for all its RIRs.  numpy's FFT
    (numpy >= 2) rounds as scipy's does, so the samples match it bit for bit.
    Beside the outputs, only one source's RIR spectra and one channel's
    inverse transform are held at a time.
    """
    scene = rirs.scene
    if len(sources) != scene.n_sources:
        raise ValueError(
            f"expected {scene.n_sources} source signals, got {len(sources)}"
        )
    for s in sources:
        if len(s) == 0:
            raise ValueError("empty signal")
        if s.sample_rate != rirs.sample_rate:
            raise ValueError("source sample rate does not match the RIRs")
    n = max(len(s) for s in sources)
    A, M = rirs.taps.shape[0], rirs.taps.shape[1]
    out_len = n + rirs.n_taps - 1
    images = np.zeros((scene.n_sources, A, M, out_len))
    for s_idx, src in enumerate(sources):
        length = len(src) + rirs.n_taps - 1
        size = next_fast_len(length)
        spectrum = np.fft.rfft(src.samples, size)
        responses = np.fft.rfft(rirs.taps[:, :, s_idx], size, axis=-1)
        # source times RIR, fftconvolve's order: numpy's complex product
        # may round its imaginary part differently with the operands swapped
        np.multiply(spectrum, responses, out=responses)
        channel = np.empty(size)
        for a, m in np.ndindex(A, M):
            np.fft.irfft(responses[a, m], size, out=channel)
            images[s_idx, a, m, :length] = channel[:length]
        del responses  # freed before the next source's spectra
    # summed in source order, as images.sum(axis=0) does it
    mixture = images[0].copy()
    for image in images[1:]:
        mixture += image
    return ObservationTensor(
        mixture=mixture, images=images,
        sample_rate=rirs.sample_rate, scene=scene,
    )


def save_rirs(path, rirs: RirSet) -> None:
    """Persist a RirSet to .npz under the keys `taps`, `sample_rate`,
    `reflection` and `scene_json` (the scene's `to_dict` as UTF-8 JSON,
    which `harness.from_json(Scene, ...)` reads back)."""
    np.savez_compressed(
        path,
        taps=rirs.taps,
        sample_rate=np.int64(rirs.sample_rate),
        reflection=np.float64(rirs.reflection),
        scene_json=np.bytes_(json.dumps(rirs.scene.to_dict()).encode()),
    )
