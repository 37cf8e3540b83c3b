val has : int -> int list -> bool
val find : int -> (int * string) list -> string
val find_opt : int -> (int * string) list -> string option
val has_key : int -> (int * string) list -> bool
val drop : int -> (int * string) list -> (int * string) list
val exists : int -> int list -> bool
