"""Full distributions of many-body spin observables from probe-qubit coherence.

Library layout:

* :mod:`kinkprobe.spin_model`   -- energy and observable_values over spin arrays, enumeration oracle
* :mod:`kinkprobe.partition`    -- partition_function: log Z at real or complex couplings, Loschmidt amplitude
* :mod:`kinkprobe.charfunc`     -- F(theta) (charfunc_values), closed and distribution cumulants
* :mod:`kinkprobe.distribution` -- distributions, parity masks, validation and distances
* :mod:`kinkprobe.reconstruct`  -- Fourier inversion of a probe record (invert_dft), gate-error estimate
* :mod:`kinkprobe.probe`        -- probe records (simulate_probe_shots; shots=None is exact, eta the gate error)
* :mod:`kinkprobe.quantum`      -- quantum_probe on a state vector, trotter_error_probe
* :mod:`kinkprobe.cli`          -- command-line frontend and figure presets
"""

from .charfunc import (CumulantFlavor, CumulantSet, charfunc_values, closed_cumulants,
                       distribution_cumulants, exact_kink_mean)
from .distribution import Distribution, DistributionReport, total_variation, validate_distribution
from .errors import (EstimationError, GridMismatchError, InputError, KinkprobeError,
                     SizeError)
from .partition import loschmidt_amplitude, partition_function
from .probe import (ProbeRecord, circuit_phase, default_time_grid, gibbs_sampler,
                    simulate_probe_shots)
from .quantum import (DiagonalEnsemble, PauliObservable, QuantumRegister,
                      noncommuting_test_observable, quantum_probe,
                      thermal_diagonal_ensemble, trotter_error_probe)
from .reconstruct import build_theta_grid, estimate_gate_error, gate_error_times, invert_dft
from .spin_model import (ModelKind, ModelParams, ObsKind, ObservableSpec,
                         OracleResult, custom_observable, energy, enumerate_oracle,
                         kink_number, magnetization, observable_values, term_sums)

__version__ = "0.1.0"
