"""covbell: hidden-variable models of Bell experiments under relativistic time ordering."""

from .core import (HiddenPoint, MeasurementSetting, Outcome, QuantumState,
                   TimeOrdering, dot, setting_grid, tsirelson_settings)
from .covariance import (CovarianceReport, FiniteStrategy, LocalModelView,
                         NotCovariantError, Witness, check_covariance,
                         enumerate_finite, frame_consistency, reduce_to_local)
from .models import (GisinSingletModel, LocalSphereModel, OrderedModel,
                     StochasticResponse, determinize, eval_pairs,
                     make_gisin_singlet, make_local_sphere, make_model,
                     stochastic_singlet)
from .spacetime import (Boost, Event, SimultaneousEventsError, boost_event,
                        is_spacelike, time_order)
from .stats import (ChshEstimate, CorrelationEstimate, JointStats, SeedSpec,
                    chsh, correlator, estimate_joint, exact_joint,
                    sample_lambda, singlet_joint_oracle, singlet_oracle_table)

__version__ = "0.1.0"
