val total : int array -> int
val leaky : int -> int
