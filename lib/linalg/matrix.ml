(* Dense matrices over floats — just enough linear algebra for the Markov
   models: construction, multiplication (used by tests to validate
   solutions), and row access for the solver. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.0
  done;
  m

let of_rows (rows : float array array) =
  let nrows = Array.length rows in
  if nrows = 0 then create 0 0
  else begin
    let ncols = Array.length rows.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> ncols then invalid_arg "Matrix.of_rows: ragged")
      rows;
    let m = create nrows ncols in
    Array.iteri
      (fun i r -> Array.blit r 0 m.data (i * ncols) ncols)
      rows;
    m
  end

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set";
  m.data.((i * m.cols) + j) <- v

let copy m = { m with data = Array.copy m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec a (x : float array) =
  if a.cols <> Array.length x then invalid_arg "Matrix.mul_vec";
  Array.init a.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.cols - 1 do
        s := !s +. (a.data.((i * a.cols) + j) *. x.(j))
      done;
      !s)

let transpose m =
  let t = create m.cols m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      t.data.((j * t.cols) + i) <- m.data.((i * m.cols) + j)
    done
  done;
  t
