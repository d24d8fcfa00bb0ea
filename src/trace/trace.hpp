// Umbrella header for the tracing subsystem.
//
// Every emit site is compiled into every build and gated at run time:
// it checks a ring pointer (the PE's own, or the calling thread's bound
// ring via emit_here) that is null unless the run was configured with
// tracing on (MachineConfig::trace_events).  An untraced run pays one
// load and a branch per site.  Sites on per-message paths emit only the
// message-lifecycle events the analyzer reads; the lockless core emits
// only on its slow paths (queue spills, allocator grow/spill, futex
// wakes, comm-thread parks).
//
// Emitting never blocks and never allocates: a full ring counts a drop
// and moves on (ring.hpp).
#pragma once

#include "common/timing.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_export.hpp"
#include "trace/event.hpp"
#include "trace/histogram.hpp"
#include "trace/registry.hpp"
#include "trace/ring.hpp"
#include "trace/session.hpp"
#include "trace/trace_io.hpp"
