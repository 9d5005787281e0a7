"""covbell: hidden-variable models of Bell experiments under relativistic time ordering."""

from .core import (HiddenPoint, MeasurementSetting, Outcome, QuantumState,
                   TimeOrdering, dot, setting_grid, tsirelson_settings)
from .covariance import (CovarianceReport, LocalModelView, NotCovariantError,
                         Witness, check_covariance, enumerate_finite,
                         frame_consistency, reduce_to_local)
from .models import (GisinSingletModel, LocalSphereModel, OrderedModel,
                     StochasticResponse, determinize, eval_pairs, make_model,
                     stochastic_singlet)
from .spacetime import (Boost, Event, SimultaneousEventsError, boost_event,
                        is_spacelike, time_order)
from .stats import (ChshEstimate, CorrelationEstimate, JointStats, SeedSpec,
                    chsh, chsh_pairs, correlator, estimate_joint, exact_joint,
                    exact_tables, sample_chsh, sample_lambda, sample_tables)

__version__ = "0.1.0"
