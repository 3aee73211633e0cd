from hypothesis import settings

# every property test runs the same seeded examples on every run, without a
# per-example deadline
settings.register_profile("hypmax", deadline=None, derandomize=True, max_examples=200)
settings.load_profile("hypmax")
