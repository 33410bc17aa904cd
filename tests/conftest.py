import warnings

from hypothesis import HealthCheck, settings

# Hypothesis's pytest plugin imports this module when a property test fails,
# to write the failing example as a patch.  It imports libcst, which may emit
# a DeprecationWarning on import; with DeprecationWarning an error
# (pyproject.toml's filterwarnings) that import would end the whole run with
# INTERNALERROR.  Importing it once here, warning ignored, caches it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then skips the patch file
        pass

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
