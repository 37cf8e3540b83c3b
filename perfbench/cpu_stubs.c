/* Processor affinity for the benchmark's own process (Linux). */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The processors this process may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(caml_alloc_tuple(0));
  n = CPU_COUNT(&set);
  res = n == 0 ? caml_alloc_tuple(0) : caml_alloc(n, 0);
  for (int cpu = 0; cpu < CPU_SETSIZE && k < n; cpu++)
    if (CPU_ISSET(cpu, &set)) Store_field(res, k++, Val_int(cpu));
  CAMLreturn(res);
}

/* Restrict this process to one processor; false when the kernel refuses. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
