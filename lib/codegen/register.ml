(** Installs the native backend into {!Runtime.Backend} at link time.

    The codegen library is compiled with [-linkall], so any executable
    that lists [codegen] among its libraries gets this initializer and
    with it a working [--backend native] / [KORCH_BACKEND=native] path —
    no call-site changes required. Executables that omit the library
    degrade to the interpreter with a one-time warning. *)

let () = Runtime.Backend.register_native Native.resolve
