// The compile-time strip switch for every instrumentation call site: the
// TIGER_TRACE_* macros (src/trace/trace.h) and the TIGER_PROF_* macros
// (src/trace/profiler.h). Building with TIGER_INSTRUMENTATION_ENABLED=0 turns
// all of them into no-op statements; the Tracer and Profiler classes are
// defined identically either way, so stripped and unstripped translation
// units link together without violating the ODR.

#ifndef SRC_TRACE_INSTRUMENTATION_H_
#define SRC_TRACE_INSTRUMENTATION_H_

#ifndef TIGER_INSTRUMENTATION_ENABLED
#define TIGER_INSTRUMENTATION_ENABLED 1
#endif

#endif  // SRC_TRACE_INSTRUMENTATION_H_
