open Tpdf_param
open Tpdf_util
module Legacy = Tpdf_param_legacy.Legacy

let poly = Alcotest.testable Poly.pp Poly.equal
let frac = Alcotest.testable Frac.pp Frac.equal
let mono = Alcotest.testable Monomial.pp Monomial.equal
let q = Alcotest.testable Q.pp Q.equal

let p s = Expr.parse_poly s
let f s = Expr.parse s

(* ------------------------------------------------------------------ *)
(* Monomial                                                            *)
(* ------------------------------------------------------------------ *)

let test_mono_basics () =
  Alcotest.check mono "x*y commut"
    (Monomial.mul (Monomial.var "x") (Monomial.var "y"))
    (Monomial.mul (Monomial.var "y") (Monomial.var "x"));
  Alcotest.(check int) "degree" 3
    (Monomial.degree (Monomial.of_list [ ("x", 2); ("y", 1) ]));
  Alcotest.(check int) "exponent" 2
    (Monomial.exponent (Monomial.of_list [ ("x", 2) ]) "x");
  Alcotest.(check int) "absent exponent" 0
    (Monomial.exponent (Monomial.of_list [ ("x", 2) ]) "y");
  Alcotest.(check bool) "one is one" true (Monomial.is_one Monomial.one)

let test_mono_divides () =
  let xy2 = Monomial.of_list [ ("x", 1); ("y", 2) ] in
  let y = Monomial.var "y" in
  Alcotest.(check bool) "y | xy2" true (Monomial.divides y xy2);
  Alcotest.(check bool) "xy2 | y" false (Monomial.divides xy2 y);
  Alcotest.check mono "xy2 / y"
    (Monomial.of_list [ ("x", 1); ("y", 1) ])
    (Monomial.div xy2 y);
  Alcotest.check_raises "bad div" (Invalid_argument "Monomial.div: not divisible")
    (fun () -> ignore (Monomial.div y xy2))

let test_mono_gcd_lcm () =
  let a = Monomial.of_list [ ("x", 2); ("y", 1) ] in
  let b = Monomial.of_list [ ("x", 1); ("z", 3) ] in
  Alcotest.check mono "gcd" (Monomial.var "x") (Monomial.gcd a b);
  Alcotest.check mono "lcm"
    (Monomial.of_list [ ("x", 2); ("y", 1); ("z", 3) ])
    (Monomial.lcm a b)

let test_mono_order () =
  (* graded: higher total degree is greater *)
  Alcotest.(check bool) "x^2 > y" true
    (Monomial.compare (Monomial.pow (Monomial.var "x") 2) (Monomial.var "y") > 0);
  Alcotest.(check bool) "one smallest" true
    (Monomial.compare Monomial.one (Monomial.var "a") < 0);
  (* same degree: lexicographic with earlier variables larger *)
  Alcotest.(check bool) "x > y at same degree" true
    (Monomial.compare (Monomial.var "x") (Monomial.var "y") > 0)

let test_mono_eval () =
  let env = function "x" -> 3 | "y" -> 2 | _ -> assert false in
  Alcotest.(check int) "x^2*y = 18" 18
    (Monomial.eval env (Monomial.of_list [ ("x", 2); ("y", 1) ]))

let test_mono_of_list_validation () =
  Alcotest.check_raises "dup" (Invalid_argument "Monomial.of_list: duplicate parameter")
    (fun () -> ignore (Monomial.of_list [ ("x", 1); ("x", 2) ]));
  Alcotest.check_raises "nonpos"
    (Invalid_argument "Monomial.of_list: non-positive exponent") (fun () ->
      ignore (Monomial.of_list [ ("x", 0) ]))

(* ------------------------------------------------------------------ *)
(* Poly                                                                *)
(* ------------------------------------------------------------------ *)

let test_poly_arith () =
  Alcotest.check poly "(x+1)(x-1) = x^2-1" (p "x^2 - 1")
    (Poly.mul (p "x+1") (p "x-1"));
  Alcotest.check poly "x + x = 2x" (p "2*x") (Poly.add (p "x") (p "x"));
  Alcotest.check poly "x - x = 0" Poly.zero (Poly.sub (p "x") (p "x"));
  Alcotest.check poly "pow" (p "x^3 + 3*x^2 + 3*x + 1") (Poly.pow (p "x+1") 3)

let test_poly_divide () =
  (match Poly.divide (p "x^2-1") (p "x-1") with
  | Some quo -> Alcotest.check poly "quotient" (p "x+1") quo
  | None -> Alcotest.fail "should divide");
  (match Poly.divide (p "x^2+1") (p "x-1") with
  | Some _ -> Alcotest.fail "should not divide"
  | None -> ());
  (match Poly.divide (p "6*x*y") (p "2*y") with
  | Some quo -> Alcotest.check poly "monomial quotient" (p "3*x") quo
  | None -> Alcotest.fail "monomials should divide");
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Poly.divide (p "x") Poly.zero))

let test_poly_divide_multivar () =
  match Poly.divide (p "b*N + b*L") (p "N + L") with
  | Some quo -> Alcotest.check poly "b(N+L)/(N+L) = b" (p "b") quo
  | None -> Alcotest.fail "should divide"

let test_poly_content () =
  Alcotest.check q "content 6x+4y" (Q.of_int 2) (Poly.content (p "6*x + 4*y"));
  Alcotest.check mono "monomial gcd"
    (Monomial.var "x")
    (Poly.monomial_gcd (p "x^2*y + 3*x"));
  Alcotest.(check bool) "is_monomial single" true (Poly.is_monomial (p "3*x^2"));
  Alcotest.(check bool) "is_monomial sum" false (Poly.is_monomial (p "x+1"))

let test_poly_eval () =
  let env = function "x" -> 2 | "y" -> 5 | _ -> assert false in
  Alcotest.(check int) "eval" 29 (Poly.eval_int env (p "x^2*y + 3*x + 3"));
  Alcotest.check q "frac eval" (Q.make 1 2)
    (Poly.eval env (Poly.scale (Q.make 1 4) (p "x")))

let test_poly_misc () =
  Alcotest.(check int) "degree" 3 (Poly.degree (p "x^2*y + x"));
  Alcotest.(check int) "degree zero poly" (-1) (Poly.degree Poly.zero);
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Poly.vars (p "x^2*y + x"));
  Alcotest.(check (option (Alcotest.testable Q.pp Q.equal)))
    "to_const" (Some (Q.of_int 5)) (Poly.to_const (p "5"));
  Alcotest.(check (option (Alcotest.testable Q.pp Q.equal)))
    "to_const non-const" None (Poly.to_const (p "x"))

(* ------------------------------------------------------------------ *)
(* Frac                                                                *)
(* ------------------------------------------------------------------ *)

let test_frac_cancellation () =
  Alcotest.check frac "p/p = 1" Frac.one (Frac.div (f "p") (f "p"));
  Alcotest.check frac "b(N+L)/(N+L) = b" (f "b") (Frac.div (f "b*N+b*L") (f "N+L"));
  Alcotest.check frac "(x^2-1)/(x-1) = x+1" (f "x+1")
    (Frac.make (p "x^2-1") (p "x-1"));
  Alcotest.check frac "2p/4 = p/2" (Frac.div (f "p") (f "2"))
    (Frac.div (f "2*p") (f "4"))

let test_frac_arith () =
  Alcotest.check frac "1/p + 1/p = 2/p"
    (Frac.div (f "2") (f "p"))
    (Frac.add (Frac.inv (f "p")) (Frac.inv (f "p")));
  Alcotest.check frac "p/2 * 2 = p" (f "p")
    (Frac.mul (Frac.div (f "p") (f "2")) (f "2"));
  Alcotest.check_raises "zero den" Division_by_zero (fun () ->
      ignore (Frac.make Poly.one Poly.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Frac.inv Frac.zero))

let test_frac_equal_cross () =
  (* equality must hold even without full normalization *)
  let a = Frac.make (p "x^2 + 2*x + 1") (p "x + 1") in
  Alcotest.(check bool) "(x+1)^2/(x+1) = x+1" true (Frac.equal a (f "x+1"))

let test_frac_eval () =
  let v = Valuation.of_list [ ("p", 6) ] in
  Alcotest.check q "p/2 at 6" (Q.of_int 3)
    (Frac.eval (Valuation.env v) (Frac.div (f "p") (f "2")))

(* ------------------------------------------------------------------ *)
(* Multivariate GCD                                                    *)
(* ------------------------------------------------------------------ *)

let test_poly_gcd_basics () =
  Alcotest.check poly "gcd(x^2-1, x^2+2x+1) = x+1" (p "x+1")
    (Poly.gcd (p "x^2-1") (p "x^2+2*x+1"));
  Alcotest.check poly "coprime" (p "1") (Poly.gcd (p "x+1") (p "x+2"));
  Alcotest.check poly "gcd with zero is primitive part" (p "3*x+2")
    (Poly.gcd Poly.zero (p "6*x+4"));
  Alcotest.check poly "constants are units" (p "1")
    (Poly.gcd (p "4") (p "6"));
  Alcotest.check poly "sign normalized" (p "x-1")
    (Poly.gcd (p "1-x") (p "x^2-1"))

let test_poly_gcd_multivariate () =
  (* gcd(b(N+L), bN) = b (the OFDM rate pattern) *)
  Alcotest.check poly "common variable factor" (p "b")
    (Poly.gcd (p "b*N + b*L") (p "b*N"));
  Alcotest.check poly "common polynomial factor" (p "N+L")
    (Poly.gcd (p "x*N + x*L") (p "y*N + y*L"));
  Alcotest.check poly "mixed" (p "x*y")
    (Poly.gcd (p "x^2*y") (p "x*y^2"))

let test_symbolic_gcd_keeps_content () =
  (* the analyses' gcd is over Z[params]: gcd(2p, 4p) = 2p *)
  let g = Tpdf_core.Symbolic.poly_gcd [ p "2*x"; p "4*x" ] in
  Alcotest.check poly "2x" (p "2*x") g;
  Alcotest.check poly "fig2-style" (p "x")
    (Tpdf_core.Symbolic.poly_gcd [ p "2*x"; p "x"; p "2*x"; p "x" ])

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

let test_poly_subst () =
  Alcotest.check poly "x := y+1 in x^2" (p "y^2 + 2*y + 1")
    (Poly.subst "x" (p "y+1") (p "x^2"));
  Alcotest.check poly "x := 3 in 2xy" (p "6*y") (Poly.subst "x" (p "3") (p "2*x*y"));
  Alcotest.check poly "absent parameter" (p "z+1") (Poly.subst "x" (p "5") (p "z+1"));
  Alcotest.check poly "cross terms collected" (p "2*y")
    (Poly.subst "x" (p "y") (p "x + y"))

let test_frac_subst () =
  (* (x^2-1)/(x+1) normalizes to x-1; substituting x := y+1 gives y *)
  let g = Frac.make (p "x^2-1") (p "x+1") in
  Alcotest.check frac "substitute into quotient" (f "y")
    (Frac.subst "x" (p "y+1") g);
  (* substitution happens in the denominator too *)
  Alcotest.check frac "denominator substitution" (Frac.div (f "1") (f "z+1"))
    (Frac.subst "x" (p "z") (Frac.make (p "1") (p "x+1")));
  Alcotest.check_raises "denominator collapse" Division_by_zero (fun () ->
      ignore (Frac.subst "x" Poly.zero (Frac.make (p "1") (p "x"))))

(* ------------------------------------------------------------------ *)
(* Valuation                                                           *)
(* ------------------------------------------------------------------ *)

let test_valuation () =
  let v = Valuation.of_list [ ("a", 1); ("b", 2) ] in
  Alcotest.(check int) "find" 2 (Valuation.find v "b");
  Alcotest.(check (option int)) "find_opt none" None (Valuation.find_opt v "c");
  Alcotest.(check bool) "mem" true (Valuation.mem v "a");
  Alcotest.check_raises "dup" (Invalid_argument "Valuation.of_list: duplicate parameter a")
    (fun () -> ignore (Valuation.of_list [ ("a", 1); ("a", 2) ]));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Valuation.of_list: parameter z must be positive") (fun () ->
      ignore (Valuation.of_list [ ("z", 0) ]))

(* ------------------------------------------------------------------ *)
(* Expr parser                                                         *)
(* ------------------------------------------------------------------ *)

let test_parser_precedence () =
  Alcotest.check poly "mul binds tighter" (p "(x*y)+z") (p "x*y + z");
  Alcotest.check poly "pow binds tighter" (Poly.add (Poly.pow (p "x") 2) Poly.zero)
    (p "x^2");
  Alcotest.check poly "unary minus" (Poly.neg (p "x")) (p "-x");
  Alcotest.check poly "parens" (Poly.mul (p "x+1") (p "2")) (p "2*(x+1)")

let test_parser_division () =
  Alcotest.check frac "p/2" (Frac.div (f "p") (f "2")) (f "p/2");
  Alcotest.check poly "exact poly division" (p "x+1") (p "(x^2-1)/(x-1)")

let test_parser_errors () =
  let expect_fail s =
    match Expr.parse s with
    | exception Expr.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  expect_fail "";
  expect_fail "1 +";
  expect_fail "(x";
  expect_fail "x ^ y";
  expect_fail "x $ y";
  expect_fail "1 2";
  (match Expr.parse_poly "1/x" with
  | exception Expr.Parse_error _ -> ()
  | _ -> Alcotest.fail "1/x is not a polynomial")

let test_parser_whitespace () =
  Alcotest.check poly "spaces ignored" (p "2*x+1") (p "  2 * x  +  1 ")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_poly =
  (* random small polynomials over x, y *)
  let open QCheck.Gen in
  let term =
    map3
      (fun c ex ey ->
        Poly.monomial (Q.of_int c)
          (Monomial.mul
             (Monomial.pow (Monomial.var "x") ex)
             (Monomial.pow (Monomial.var "y") ey)))
      (int_range (-5) 5) (int_range 0 3) (int_range 0 3)
  in
  map (List.fold_left Poly.add Poly.zero) (list_size (int_range 0 5) term)

let arb_poly = QCheck.make ~print:Poly.to_string gen_poly

let prop_poly_mul_comm =
  QCheck.Test.make ~name:"poly multiplication commutative" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      Poly.equal (Poly.mul a b) (Poly.mul b a))

let prop_poly_distrib =
  QCheck.Test.make ~name:"poly distributivity" ~count:300
    (QCheck.triple arb_poly arb_poly arb_poly) (fun (a, b, c) ->
      Poly.equal (Poly.mul a (Poly.add b c))
        (Poly.add (Poly.mul a b) (Poly.mul a c)))

let prop_poly_divide_exact =
  QCheck.Test.make ~name:"divide (a*b) b = a" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      QCheck.assume (not (Poly.is_zero b));
      match Poly.divide (Poly.mul a b) b with
      | Some quo -> Poly.equal quo a
      | None -> false)

let prop_frac_roundtrip =
  QCheck.Test.make ~name:"(a/b)*b = a" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      QCheck.assume (not (Poly.is_zero b));
      let x = Frac.make a b in
      Frac.equal (Frac.mul x (Frac.of_poly b)) (Frac.of_poly a))

let prop_eval_homomorphism =
  QCheck.Test.make ~name:"eval is a ring homomorphism" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      let env = function "x" -> 3 | "y" -> 2 | _ -> 1 in
      Q.equal (Poly.eval env (Poly.mul a b))
        (Q.mul (Poly.eval env a) (Poly.eval env b))
      && Q.equal (Poly.eval env (Poly.add a b))
           (Q.add (Poly.eval env a) (Poly.eval env b)))


let prop_subst_eval_commute =
  QCheck.Test.make ~name:"subst then eval = eval with substituted env" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      let env = function "x" -> 2 | "y" -> 5 | _ -> 1 in
      let direct = Poly.eval env (Poly.subst "x" b a) in
      let env' v = if v = "x" then Q.to_int (Poly.eval env b) else env v in
      QCheck.assume (Q.is_integer (Poly.eval env b));
      Q.equal direct (Poly.eval env' a))

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"Poly.pp output re-parses to the same polynomial"
    ~count:300 arb_poly (fun a ->
      (* coefficients here are integers, so the printed form is valid
         expression syntax *)
      Poly.equal a (Expr.parse_poly (Poly.to_string a)))

let prop_gcd_divides_both =
  QCheck.Test.make ~name:"gcd divides both arguments" ~count:200
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      let g = Poly.gcd a b in
      if Poly.is_zero g then Poly.is_zero a && Poly.is_zero b
      else
        (Poly.is_zero a || Poly.divide a g <> None)
        && (Poly.is_zero b || Poly.divide b g <> None))

(* Exactness is guaranteed for the polynomial sizes of dataflow rates
   (small degrees and coefficients); the remainder-sequence arithmetic can
   overflow native ints on larger random inputs, where gcd falls back to a
   valid (but not maximal) common divisor — so the maximality property is
   checked on rate-sized polynomials. *)
let arb_tiny_poly =
  let gen =
    let open QCheck.Gen in
    let term =
      map3
        (fun c ex ey ->
          Poly.monomial (Q.of_int c)
            (Monomial.mul
               (Monomial.pow (Monomial.var "x") ex)
               (Monomial.pow (Monomial.var "y") ey)))
        (int_range (-2) 2) (int_range 0 2) (int_range 0 2)
    in
    map (List.fold_left Poly.add Poly.zero) (list_size (int_range 1 3) term)
  in
  QCheck.make ~print:Poly.to_string gen

let prop_gcd_common_factor =
  QCheck.Test.make ~name:"gcd(ac, bc) is divisible by primitive c" ~count:300
    (QCheck.triple arb_tiny_poly arb_tiny_poly arb_tiny_poly) (fun (a, b, c) ->
      QCheck.assume (not (Poly.is_zero a));
      QCheck.assume (not (Poly.is_zero b));
      QCheck.assume (not (Poly.is_zero c));
      let g = Poly.gcd (Poly.mul a c) (Poly.mul b c) in
      Poly.divide g (Poly.gcd Poly.zero c) <> None)

let prop_gcd_commutes =
  QCheck.Test.make ~name:"gcd is commutative" ~count:200
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      Poly.equal (Poly.gcd a b) (Poly.gcd b a))

(* ------------------------------------------------------------------ *)
(* Hash-consed kernel: interning, memoization, overflow fallback       *)
(* ------------------------------------------------------------------ *)

let with_memo flag fn =
  let prev = Memo.enabled () in
  Memo.set_enabled flag;
  Fun.protect ~finally:(fun () -> Memo.set_enabled prev) fn

let test_interning_identity () =
  (* structurally equal values built along different paths are physically
     equal, so [==] is a complete equality test within a domain *)
  let a = p "x^2 + 2*x + 1" in
  let b = Poly.mul (p "x+1") (p "x+1") in
  Alcotest.(check bool) "poly interned" true (a == b);
  Alcotest.(check int) "same hash" (Poly.hash a) (Poly.hash b);
  Alcotest.(check int) "same id" (Poly.id a) (Poly.id b);
  let m1 = Monomial.of_list [ ("y", 2); ("x", 1) ]
  and m2 = Monomial.of_sorted_array [| ("x", 1); ("y", 2) |] in
  Alcotest.(check bool) "monomial interned" true (m1 == m2);
  Alcotest.(check int) "same monomial id" (Monomial.id m1) (Monomial.id m2);
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Monomial.of_sorted_array: not strictly sorted")
    (fun () -> ignore (Monomial.of_sorted_array [| ("y", 1); ("x", 1) |]));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Monomial.of_sorted_array: not strictly sorted")
    (fun () -> ignore (Monomial.of_sorted_array [| ("x", 1); ("x", 2) |]));
  Alcotest.check_raises "non-positive exponent rejected"
    (Invalid_argument "Monomial.of_sorted_array: non-positive exponent")
    (fun () -> ignore (Monomial.of_sorted_array [| ("x", 0) |]))

let test_gcd_overflow_fallback () =
  (* (x+1)·A and (x+1)·B with huge-coefficient A, B: the primitive
     remainder sequence overflows native ints mid-run and [gcd] falls back
     to the common monomial divisor instead of raising.  The fallback is a
     valid common divisor but deliberately not maximal — it must NOT
     recover the (x+1) factor, otherwise this test is not exercising the
     fallback path at all. *)
  let big = Q.of_int (1 lsl 40) in
  let va = Poly.add (Poly.scale big (p "x^2")) (p "x + 1")
  and vb = Poly.add (Poly.scale big (p "x^2")) (p "x - 1") in
  let a = Poly.mul (p "x+1") va and b = Poly.mul (p "x+1") vb in
  let g = Poly.gcd a b in
  Alcotest.check poly "fallback is constant" Poly.one g;
  Alcotest.(check bool) "fallback is not the exact gcd" false
    (Poly.equal g (p "x+1"));
  (* common monomial factors survive the fallback *)
  let y = p "y" in
  Alcotest.check poly "monomial factor recovered" y
    (Poly.gcd (Poly.mul y a) (Poly.mul y b));
  (* a one-sided zero never hits the remainder sequence: the result is the
     other argument up to sign/content, so it still divides it *)
  Alcotest.(check bool) "gcd a 0 divides a" true
    (Poly.divide a (Poly.gcd a Poly.zero) <> None);
  Alcotest.check poly "gcd 0 0 = 0" Poly.zero (Poly.gcd Poly.zero Poly.zero)

let test_memo_on_off () =
  let a = p "p^2*q + 3*p" and b = p "p*q + q" in
  let run () = (Poly.gcd a b, Poly.subst "p" (p "q+1") a, Frac.make a b) in
  let g1, s1, f1 = with_memo true run in
  let g2, s2, f2 = with_memo false run in
  Alcotest.check poly "gcd agrees" g1 g2;
  Alcotest.check poly "subst agrees" s1 s2;
  Alcotest.check frac "make agrees" f1 f2;
  (* repeating a memoized op registers hits, and the intern/memo gauges
     that feed the solver telemetry are live *)
  ignore (with_memo true run);
  Alcotest.(check bool) "hits counted" true (Memo.hits () > 0);
  Alcotest.(check bool) "misses counted" true (Memo.misses () > 0);
  Alcotest.(check bool) "monomial intern gauge populated" true
    (List.assoc "param.intern.monomials" (Memo.gauges ()) > 0.);
  Alcotest.(check bool) "poly intern gauge populated" true
    (List.assoc "param.intern.polys" (Memo.gauges ()) > 0.)

let test_frac_pp_parens () =
  let fr = Frac.make (p "z") (p "x*y") in
  Alcotest.(check string) "multi-variable denominator is wrapped" "z/(x*y)"
    (Frac.to_string fr);
  Alcotest.check frac "wrapped form re-parses" fr (f (Frac.to_string fr));
  let fr2 = Frac.make (p "z") (p "x^2") in
  Alcotest.(check string) "bare power needs no parentheses" "z/x^2"
    (Frac.to_string fr2);
  Alcotest.check frac "bare form re-parses" fr2 (f (Frac.to_string fr2))

(* ------------------------------------------------------------------ *)
(* Properties: ring axioms, canonical-form identity, legacy differential *)
(* ------------------------------------------------------------------ *)

let prop_poly_add_assoc =
  QCheck.Test.make ~name:"poly addition associative" ~count:300
    (QCheck.triple arb_poly arb_poly arb_poly) (fun (a, b, c) ->
      Poly.equal (Poly.add (Poly.add a b) c) (Poly.add a (Poly.add b c)))

let prop_poly_mul_assoc =
  QCheck.Test.make ~name:"poly multiplication associative" ~count:200
    (QCheck.triple arb_poly arb_poly arb_poly) (fun (a, b, c) ->
      Poly.equal (Poly.mul (Poly.mul a b) c) (Poly.mul a (Poly.mul b c)))

let prop_poly_add_inverse =
  QCheck.Test.make ~name:"a + (-a) = 0" ~count:300 arb_poly (fun a ->
      Poly.is_zero (Poly.add a (Poly.neg a)))

let sign n = Stdlib.compare n 0

let prop_poly_compare_consistent =
  QCheck.Test.make ~name:"Poly.compare/hash consistent with equal" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      (Poly.compare a b = 0) = Poly.equal a b
      && sign (Poly.compare a b) = -sign (Poly.compare b a)
      && ((not (Poly.equal a b)) || Poly.hash a = Poly.hash b))

let prop_frac_compare_consistent =
  QCheck.Test.make ~name:"Frac.compare/hash consistent with equal" ~count:200
    (QCheck.quad arb_poly arb_poly arb_poly arb_poly) (fun (a, b, c, d) ->
      QCheck.assume (not (Poly.is_zero b));
      QCheck.assume (not (Poly.is_zero d));
      let x = Frac.make a b and y = Frac.make c d in
      (Frac.compare x y = 0) = Frac.equal x y
      && sign (Frac.compare x y) = -sign (Frac.compare y x)
      && ((not (Frac.equal x y)) || Frac.hash x = Frac.hash y))

let prop_frac_make_canonical =
  QCheck.Test.make
    ~name:"Frac.make is idempotent up to physical identity" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      QCheck.assume (not (Poly.is_zero b));
      let fr = Frac.make a b in
      Frac.make (Frac.num fr) (Frac.den fr) == fr)

let prop_frac_pp_parse_roundtrip =
  QCheck.Test.make ~name:"Frac.pp output re-parses to an equal fraction"
    ~count:300 (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      QCheck.assume (not (Poly.is_zero b));
      let fr = Frac.make a b in
      Frac.equal fr (Expr.parse (Frac.to_string fr)))

(* Differential check against the frozen pre-rewrite kernel: the
   hash-consed implementation must print byte-identical results for every
   ring and gcd operation. *)
let legacy_of_poly pl =
  List.fold_left
    (fun acc (m, c) ->
      Legacy.Poly.add acc
        (Legacy.Poly.monomial c (Legacy.Monomial.of_list (Monomial.to_list m))))
    Legacy.Poly.zero (Poly.terms pl)

let prop_differential_legacy_poly =
  QCheck.Test.make ~name:"poly ops match the frozen legacy kernel" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      let la = legacy_of_poly a and lb = legacy_of_poly b in
      let same op lop =
        String.equal (Poly.to_string (op a b)) (Legacy.Poly.to_string (lop la lb))
      in
      same Poly.add Legacy.Poly.add
      && same Poly.sub Legacy.Poly.sub
      && same Poly.mul Legacy.Poly.mul
      && same Poly.gcd Legacy.Poly.gcd
      && (Poly.is_zero b
         ||
         match (Poly.divide a b, Legacy.Poly.divide la lb) with
         | None, None -> true
         | Some q1, Some q2 ->
             String.equal (Poly.to_string q1) (Legacy.Poly.to_string q2)
         | _ -> false))

let prop_differential_legacy_frac =
  QCheck.Test.make ~name:"Frac.make matches the legacy value" ~count:300
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      QCheck.assume (not (Poly.is_zero b));
      let fr = Frac.make a b in
      (* the rewrite cancels more aggressively (full polynomial gcd), so
         compare values by legacy cross-multiplication, not printed form *)
      Legacy.Frac.equal
        (Legacy.Frac.make (legacy_of_poly a) (legacy_of_poly b))
        (Legacy.Frac.make
           (legacy_of_poly (Frac.num fr))
           (legacy_of_poly (Frac.den fr))))

let () =
  Alcotest.run "param"
    [
      ( "monomial",
        [
          Alcotest.test_case "basics" `Quick test_mono_basics;
          Alcotest.test_case "divides" `Quick test_mono_divides;
          Alcotest.test_case "gcd/lcm" `Quick test_mono_gcd_lcm;
          Alcotest.test_case "graded order" `Quick test_mono_order;
          Alcotest.test_case "eval" `Quick test_mono_eval;
          Alcotest.test_case "of_list validation" `Quick test_mono_of_list_validation;
        ] );
      ( "poly",
        [
          Alcotest.test_case "arithmetic" `Quick test_poly_arith;
          Alcotest.test_case "divide" `Quick test_poly_divide;
          Alcotest.test_case "divide multivariate" `Quick test_poly_divide_multivar;
          Alcotest.test_case "content" `Quick test_poly_content;
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "misc" `Quick test_poly_misc;
        ] );
      ( "frac",
        [
          Alcotest.test_case "cancellation" `Quick test_frac_cancellation;
          Alcotest.test_case "arithmetic" `Quick test_frac_arith;
          Alcotest.test_case "cross equality" `Quick test_frac_equal_cross;
          Alcotest.test_case "eval" `Quick test_frac_eval;
        ] );
      ( "gcd",
        [
          Alcotest.test_case "basics" `Quick test_poly_gcd_basics;
          Alcotest.test_case "multivariate" `Quick test_poly_gcd_multivariate;
          Alcotest.test_case "symbolic content" `Quick test_symbolic_gcd_keeps_content;
        ] );
      ( "subst",
        [
          Alcotest.test_case "poly" `Quick test_poly_subst;
          Alcotest.test_case "frac" `Quick test_frac_subst;
        ] );
      ("valuation", [ Alcotest.test_case "basics" `Quick test_valuation ]);
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "division" `Quick test_parser_division;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "whitespace" `Quick test_parser_whitespace;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "interning identity" `Quick test_interning_identity;
          Alcotest.test_case "gcd overflow fallback" `Quick
            test_gcd_overflow_fallback;
          Alcotest.test_case "memo on/off" `Quick test_memo_on_off;
          Alcotest.test_case "frac pp parentheses" `Quick test_frac_pp_parens;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_poly_mul_comm;
            prop_poly_distrib;
            prop_poly_divide_exact;
            prop_frac_roundtrip;
            prop_eval_homomorphism;
            prop_subst_eval_commute;
            prop_pp_parse_roundtrip;
            prop_gcd_divides_both;
            prop_gcd_common_factor;
            prop_gcd_commutes;
            prop_poly_add_assoc;
            prop_poly_mul_assoc;
            prop_poly_add_inverse;
            prop_poly_compare_consistent;
            prop_frac_compare_consistent;
            prop_frac_make_canonical;
            prop_frac_pp_parse_roundtrip;
            prop_differential_legacy_poly;
            prop_differential_legacy_frac;
          ] );
    ]
