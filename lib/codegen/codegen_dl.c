/* dlopen/dlsym/call stubs for the native kernel backend.

   A compiled kernel exports
       void korch_kernel_<md5>(const double **ins, double **outs);
   Inputs and outputs are OCaml flat float arrays; since OCaml 4's boxed
   float array representation stores raw doubles in the block, the data
   pointer is just the value pointer. The kernel call makes no OCaml
   allocation and never releases the runtime lock, so the arrays cannot
   move while the C code runs (a domain only parks for a GC safepoint at
   allocations or explicit polls, neither of which happens here). */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

#define MAX_ARGS 256

CAMLprim value korch_cg_dlopen(value path)
{
  void *h = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlopen failed");
  }
  return caml_copy_nativeint((intnat)h);
}

CAMLprim value korch_cg_dlsym(value handle, value name)
{
  void *h = (void *)Nativeint_val(handle);
  (void)dlerror();
  void *sym = dlsym(h, String_val(name));
  if (sym == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlsym: symbol not found");
  }
  return caml_copy_nativeint((intnat)sym);
}

CAMLprim value korch_cg_dlclose(value handle)
{
  dlclose((void *)Nativeint_val(handle));
  return Val_unit;
}

typedef void (*korch_kernel_fn)(const double **, double **);

CAMLprim value korch_cg_call(value fn, value ins, value outs)
{
  mlsize_t ni = Wosize_val(ins);
  mlsize_t no = Wosize_val(outs);
  const double *in_ptrs[MAX_ARGS];
  double *out_ptrs[MAX_ARGS];
  if (ni > MAX_ARGS || no > MAX_ARGS)
    caml_invalid_argument("korch_cg_call: too many kernel arguments");
  for (mlsize_t i = 0; i < ni; i++)
    in_ptrs[i] = (const double *)Op_val(Field(ins, i));
  for (mlsize_t i = 0; i < no; i++)
    out_ptrs[i] = (double *)Op_val(Field(outs, i));
  ((korch_kernel_fn)Nativeint_val(fn))(in_ptrs, out_ptrs);
  return Val_unit;
}
