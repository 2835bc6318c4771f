import os

from hypothesis import settings

# Under CI a failing property test prints its reproduce blob, so that the
# counterexample can be replayed locally with @reproduce_failure.  The
# profile inherits the active one (recent Hypothesis versions load their own
# "ci" profile when CI is set, older ones the default) and sets nothing else,
# so example counts and deadlines stay as they were.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
