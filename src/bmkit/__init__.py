"""Numerical exterior calculus for Beltrami-Maxwell electromagnetic fields.

The toolkit builds the catalog of Beltrami one-forms and Maxwell field sets,
verifies their geometric structures (Beltrami identity, Maxwell equations,
constitutive relations, contact forms, stable Hamiltonian structures,
symplectic nondegeneracy, conservation along Reeb fields), extracts Reeb
vector fields, and traces electromagnetic field lines to find closed orbits.
"""

from .charts import (AxisSpec, Chart, euclidean3, interval_axis, periodic_axis,
                     solid_torus, spacetime, torus3)
from .scalars import (ScalarField, constant, coordinate, from_function,
                      lift_spatial, monomial, restrict_time, sin_wave, wave)
from .forms import (DifferentialForm, VectorField, dx, exterior_derivative,
                    interior_product, lie_derivative, lie_derivative_flow, lift_form,
                    make_form, restrict_form, scalar_form, spatial_exterior_derivative,
                    time_derivative, vector_field, wedge, zero_form)
from .metrics import (MetricField, euclidean_metric, hodge_star,
                      lorentzian_product, metric_sharp, norm_sq_field,
                      solid_torus_metric, spatial_hodge)
from .bessel import bessel_j, j0_field, j1_field
from .catalog import (CATALOG, AmplitudePair, BeltramiForm, CatalogEntry,
                      Constants, MaxwellFieldSet, MaxwellSlice,
                      NONDIMENSIONAL, SI, abc_flow, amplitude_closed_form,
                      amplitude_ode, beltrami_maxwell, beltrami_nonparallel,
                      build_catalog_field, constant_field, maxwell_from_eh,
                      parallel_nonbeltrami, solid_torus_mode, t3_mode,
                      traveling_wave)
from .verify import (CheckReport, SampleGrid, beltrami_residual,
                     conservation_along, constitutive_residuals,
                     contact_margin, maxwell_residuals, parallel_check,
                     reeb_like_check, shs_check, symplectic_margin)
from .reeb import (ReebField, SHSPair, field_line_generator,
                   normalization_residuals, reeb_closed_form_beltrami,
                   reeb_field, reeb_for_maxwell, reeb_parallel_ratio)
from .orbits import (ClosureResult, OrbitTrace, SurveyResult, closed_orbit_survey,
                     detect_closure, integrate, integrate_batch, write_orbit_csv,
                     write_vector_field_csv)
from .errors import (BmkitError, ChartMismatchError, ConfigError,
                     DegenerateInstantError, DegeneratePointError, DegreeError,
                     DomainError, SingularFieldError)

__version__ = "0.1.0"
