"""Distribution-free prediction intervals for multi-step time series
forecasting, with online width adaptation under distribution shift."""

__version__ = "0.1.0"
