/* Pinning the calling thread to one CPU and back, for perfbench's timed
   phase. OCaml's Unix library has no binding for sched_setaffinity. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

static cpu_set_t saved;
static int pinned = 0;

/* Restrict the calling thread to the first CPU it may run on; threads and
   processes it starts later inherit that. */
value perfbench_pin_first_cpu(value unit)
{
  cpu_set_t one;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof saved, &saved) != 0)
    caml_failwith("sched_getaffinity");
  for (cpu = 0; cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved); cpu++)
    ;
  if (cpu == CPU_SETSIZE)
    caml_failwith("sched_getaffinity: no CPU");
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    caml_failwith("sched_setaffinity");
  pinned = 1;
  return Val_unit;
}

/* Give the calling thread back the CPUs it had before pinning. */
value perfbench_unpin(value unit)
{
  (void)unit;
  if (pinned && sched_setaffinity(0, sizeof saved, &saved) != 0)
    caml_failwith("sched_setaffinity");
  pinned = 0;
  return Val_unit;
}
