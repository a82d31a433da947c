"""Multi-array target speaker extraction ("spotforming").

A target speaker standing at a known spot is observed by several distributed
microphone arrays.  Each array runs an MVDR beamformer pointed at the spot;
the beamformer outputs still contain leaked interference, but only the target
is common to all of them.  The extraction stage therefore factorizes the
stack of beamformer magnitude spectrograms and keeps the components shared
across arrays.

Modules
-------
signal    STFT analysis/synthesis, FFT sizes, resampling, WAV I/O.
roomsim   2-D image-method room simulator and scene description.
beamform  Oracle MVDR beamforming per array, plus a delay-and-sum reference.
nmf       Baseline: NMF on the concatenated spectrograms + threshold mask.
ntf       Proposed: NTF with attractor-regularized array factors.
gkl       Generalized Kullback-Leibler divergence for the NTF cost.
evaluate  SI-SDR and filtered-reference SDR metrics.
synth     Deterministic speech-like test sources.
harness   End-to-end experiment runner: results, summary and manifest files.
cli       Command-line front end (`spotform`).

The package exports the entry points below; everything else is imported
from its module.
"""

from spotform.harness import (
    ExperimentConfig,
    prepare_pipeline,
    run_experiment,
    run_single,
    separate,
)

__version__ = "0.1.0"
