"""End-to-end HA-pipeline benchmark (see README.md in this directory)."""
