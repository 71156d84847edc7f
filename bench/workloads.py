"""The benchmark's workloads, by name, in run order."""

import cli_readme
import leaf_streams
import surface_loops
import torus_exotic

ALL = (torus_exotic, surface_loops, leaf_streams, cli_readme)
BY_NAME = {wl.NAME: wl for wl in ALL}
