"""Lets the benchmark's tests import the package from this checkout."""

import env

env.use_checkout_sources()
