"""Two-level prompt continual learner on a self-contained autodiff core."""

__version__ = "0.1.0"


class PromptclError(ValueError):
    """Base of every error the package raises on bad input or misuse."""
